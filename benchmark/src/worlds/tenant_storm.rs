//! `tenant_storm`: eight tenants reading 32 composites through the façade,
//! with admission control, circuit breakers, SLOs, failover groups and a
//! trickle of mote crashes.
//!
//! The only workload where `core.facade`, `core.admission`, `obs.slo`,
//! retry and failover carry weight — and where the same hot composites are
//! read again and again inside a freshness window, which is what result
//! reuse would exploit. `flat_read` bypasses all of it.
//!
//! Arrivals are open-loop *in simulated time*: each one-second round every
//! tenant draws Poisson(rate × burst level) reads whatever the system did
//! with the last round's. The host runs them closed-loop, one at a time.

use std::collections::VecDeque;

use sensorcer_core::prelude::*;
use sensorcer_exertion::retry::RetryPolicy;
use sensorcer_exertion::{ServiceAccessor, ServicerBox};
use sensorcer_obs::{BurnRateWindows, SloKind, SloSpec};
use sensorcer_registry::lus::LusHandle;
use sensorcer_sim::prelude::*;

use super::{
    deploy_sampled_esp, elementary_sensors, lab_world, probe, OpResult, ProbeKind, ShapeCount,
    Targets, World, LONG_LEASE,
};
use crate::gen::{Op, OpGen, Rng, Zipf};

pub const MOTES: usize = 256;
pub const COMPOSITES: usize = 32;
pub const CHILDREN: usize = MOTES / COMPOSITES;
const HUBS: usize = 4;

/// Name, class, reads per simulated second, and the quota (tokens per
/// second = bucket size) the gate grants. Critical tenants are
/// over-provisioned, standard ones queue under Poisson clumps, bulk ones
/// fit at baseline and are shed during their burst.
const TENANTS: [(&str, QosClass, f64, f64); 8] = [
    ("vip-0", QosClass::Critical, 5.0, 20.0),
    ("vip-1", QosClass::Critical, 5.0, 20.0),
    ("std-0", QosClass::Standard, 4.0, 6.0),
    ("std-1", QosClass::Standard, 4.0, 6.0),
    ("std-2", QosClass::Standard, 4.0, 6.0),
    ("bulk-0", QosClass::Bulk, 2.0, 4.0),
    ("bulk-1", QosClass::Bulk, 2.0, 4.0),
    ("bulk-2", QosClass::Bulk, 2.0, 4.0),
];

/// Bulk tenants ask for eight times their baseline during the last
/// `BURST_ROUNDS` of every `BURST_PERIOD` rounds.
const BURST_PERIOD: u64 = 300;
const BURST_ROUNDS: u64 = 60;
const BURST_LEVEL: f64 = 8.0;

/// One crash every eight rounds, down for 20–60 rounds: about five of the
/// 256 motes (2 %) are dark at any time.
const CRASH_PER_ROUND: f64 = 0.125;
const OUTAGE_MIN: u64 = 20;
const OUTAGE_SPAN: u64 = 41;

pub struct Gen {
    rng: Rng,
    zipf: Zipf,
    round: u64,
    /// Motes currently down, with the round they come back.
    down: Vec<(u16, u64)>,
    queue: VecDeque<Op>,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed),
            zipf: Zipf::new(COMPOSITES, 1.1),
            round: 0,
            down: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    fn fill_round(&mut self) {
        let r = self.round;
        self.round += 1;

        let (back, still): (Vec<_>, Vec<_>) = self.down.iter().partition(|(_, at)| *at <= r);
        self.down = still;
        for (mote, _) in back {
            self.queue.push_back(Op::Restart { mote });
        }
        if self.rng.unit() < CRASH_PER_ROUND {
            let mote = self.rng.below(MOTES as u64) as u16;
            if !self.down.iter().any(|(m, _)| *m == mote) {
                let until = r + OUTAGE_MIN + self.rng.below(OUTAGE_SPAN);
                self.down.push((mote, until));
                self.queue.push_back(Op::Crash { mote });
            }
        }

        let bursting = r % BURST_PERIOD >= BURST_PERIOD - BURST_ROUNDS;
        let mut reads = Vec::new();
        for (t, (_, class, per_s, _)) in TENANTS.iter().enumerate() {
            let level = if bursting && *class == QosClass::Bulk {
                BURST_LEVEL
            } else {
                1.0
            };
            for _ in 0..self.rng.poisson(per_s * level) {
                reads.push(Op::FacadeRead {
                    tenant: t as u8,
                    service: self.zipf.draw(&mut self.rng) as u16,
                });
            }
        }
        // Arrival order inside the round: a uniform shuffle.
        for i in (1..reads.len()).rev() {
            reads.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        self.queue.extend(reads);
        self.queue.push_back(Op::EndRound);
    }
}

impl OpGen for Gen {
    fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return op;
            }
            self.fill_round();
        }
    }
}

pub struct StormWorld {
    env: Env,
    lab: HostId,
    client: HostId,
    lus: LusHandle,
    facade: FacadeHandle,
    admission: SharedAdmission,
    motes: Vec<HostId>,
    services: Vec<String>,
    slo_specs: Vec<SloSpec>,
    round_start: SimTime,
}

impl StormWorld {
    pub fn new(seed: u64, kind: ProbeKind) -> StormWorld {
        let (mut env, lab, client, lus) = lab_world(seed);
        // A requestor on this network gives a silent host a quarter of a
        // second, not the default two: with ~2 % of motes dark, two-second
        // timeouts would stretch every round to several seconds and the
        // token buckets would never run dry.
        env.config.call_timeout = SimDuration::from_millis(250);

        let mut motes = Vec::with_capacity(MOTES);
        for i in 0..MOTES {
            let name = format!("T-{i:03}");
            let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            let p = probe(&mut env, kind, i);
            deploy_sampled_esp(
                &mut env,
                EspConfig {
                    lease: LONG_LEASE,
                    equivalence_group: Some(group_of(i / CHILDREN)),
                    ..EspConfig::new(mote, name, p, lus)
                },
            );
            motes.push(mote);
        }

        let hubs: Vec<HostId> = (0..HUBS)
            .map(|h| env.add_host(format!("hub-{h}"), HostKind::Server))
            .collect();
        let breakers = shared_breakers(BreakerConfig {
            open_for: SimDuration::from_secs(15),
            ..BreakerConfig::default()
        });
        let services = service_names();
        for (c, name) in services.iter().enumerate() {
            let mut cfg = CspConfig::new(hubs[c % HUBS], name.clone(), lus);
            cfg.lease = LONG_LEASE;
            cfg.degradation = DegradationPolicy::Quorum(CHILDREN / 2);
            cfg.retry = RetryPolicy {
                attempts: 2,
                backoff: SimDuration::from_millis(50),
                deadline: SimDuration::from_secs(1),
            };
            cfg.breakers = Some(breakers.clone());
            let csp = deploy_csp(&mut env, cfg).expect("composite deploys");
            env.with_service(csp.service, |_env, sb: &mut ServicerBox| {
                let csp = sb
                    .downcast_mut::<CompositeSensorProvider>()
                    .expect("a composite was deployed here");
                for i in c * CHILDREN..(c + 1) * CHILDREN {
                    csp.add_service_grouped(&format!("T-{i:03}"), Some(group_of(c)))
                        .expect("fresh child");
                }
            })
            .expect("composite reachable");
        }

        let slo_specs: Vec<SloSpec> = services
            .iter()
            .map(|s| SloSpec {
                name: format!("{}-availability", s.to_lowercase()),
                service: s.clone(),
                kind: SloKind::Availability { min_ratio: 0.95 },
                windows: BurnRateWindows {
                    fast: SimDuration::from_secs(45),
                    slow: SimDuration::from_secs(180),
                    fast_burn: 3.0,
                    slow_burn: 1.5,
                },
            })
            .collect();
        let facade = SensorcerFacade::deploy_with_slos(
            &mut env,
            lab,
            "SenSORCER Facade",
            ServiceAccessor::new(vec![lus]),
            None,
            slo_specs.clone(),
        );
        let mut gate =
            AdmissionController::new(TenantPolicy::new(QosClass::Standard, 50.0, 50.0, 1024));
        for (name, class, _, quota) in TENANTS {
            gate.register(name, TenantPolicy::new(class, quota, quota, 1024));
        }
        let admission = shared_admission(gate);
        let installed = admission.clone();
        env.with_service(facade.service, |_env, sb: &mut ServicerBox| {
            sb.downcast_mut::<SensorcerFacade>()
                .expect("a façade was deployed here")
                .install_admission(installed);
        })
        .expect("façade reachable");

        let round_start = env.now();
        StormWorld {
            env,
            lab,
            client,
            lus,
            facade,
            admission,
            motes,
            services,
            slo_specs,
            round_start,
        }
    }
}

fn service_names() -> Vec<String> {
    (0..COMPOSITES).map(|c| format!("Feed-{c:02}")).collect()
}

fn group_of(composite: usize) -> String {
    format!("g-{composite:02}")
}

impl World for StormWorld {
    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn apply(&mut self, op: &Op) -> Option<OpResult> {
        match *op {
            Op::FacadeRead { tenant, service } => {
                Some(OpResult::reading(self.facade.get_value_as(
                    &mut self.env,
                    self.client,
                    TENANTS[usize::from(tenant)].0,
                    &self.services[usize::from(service)],
                )))
            }
            Op::Crash { mote } => {
                self.env.crash_host(self.motes[usize::from(mote)]);
                None
            }
            Op::Restart { mote } => {
                self.env.restart_host(self.motes[usize::from(mote)]);
                None
            }
            Op::EndRound => {
                // A round whose reads overran its second starts the next
                // one late rather than skipping it.
                let end = self.round_start + SimDuration::from_secs(1);
                self.env.run_until(end);
                self.round_start = self.env.now();
                None
            }
            ref other => panic!("the storm has no step {other:?}"),
        }
    }

    fn targets(&self) -> Targets {
        Targets {
            client: self.client,
            lus: self.lus,
            registrar: self.lab,
            accessor: Some(ServiceAccessor::new(vec![self.lus])),
            lookup_name: "T-000".into(),
            lookup_template: elementary_sensors(),
            leaf: Some("T-000".into()),
            composite: Some((self.services[0].clone(), CHILDREN)),
            facade: Some(self.facade),
            admission: Some(self.admission.clone()),
            hier: None,
            slo_specs: self.slo_specs.clone(),
            expr_arity: CHILDREN,
            // Per admitted read: the façade's task, the composite's, one
            // per child; the façade binds the composite by name.
            shape_counts: vec![
                ShapeCount::local("sensors.probe.sample_ns", CHILDREN as f64),
                ShapeCount::local("exertion.context.build_ns", (CHILDREN + 2) as f64),
                ShapeCount::remote("exertion.fmi.bind_ns", 1.0),
                ShapeCount::local("core.admission.admit_ns", 1.0),
                ShapeCount::local("obs.slo.record_ns", 1.0),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_carry_bursts_and_paired_crashes() {
        let mut g = Gen::new(42);
        let (mut reads_calm, mut reads_burst) = (0u64, 0u64);
        let (mut crashes, mut restarts, mut round) = (0u64, 0u64, 0u64);
        while round < 2 * BURST_PERIOD {
            match g.next_op() {
                Op::FacadeRead { tenant, service } => {
                    assert!(usize::from(tenant) < TENANTS.len());
                    assert!(usize::from(service) < COMPOSITES);
                    if round % BURST_PERIOD >= BURST_PERIOD - BURST_ROUNDS {
                        reads_burst += 1;
                    } else {
                        reads_calm += 1;
                    }
                }
                Op::Crash { .. } => crashes += 1,
                Op::Restart { .. } => restarts += 1,
                Op::EndRound => round += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let calm = reads_calm as f64 / (2 * (BURST_PERIOD - BURST_ROUNDS)) as f64;
        let burst = reads_burst as f64 / (2 * BURST_ROUNDS) as f64;
        assert!((calm - 28.0).abs() < 1.5, "calm rounds average {calm}");
        assert!((burst - 70.0).abs() < 4.0, "burst rounds average {burst}");
        assert!(
            crashes > 40 && restarts + 10 >= crashes,
            "{crashes} / {restarts}"
        );
    }
}
