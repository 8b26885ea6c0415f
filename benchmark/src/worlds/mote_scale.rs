//! `mote_scale`: 20 000 live ESPs in 16 subnets, sampling every 5 s and
//! renewing 300 s leases, with one small composite read per simulated
//! second.
//!
//! The timer queue, probe sampling and lease renewal dominate; the read
//! path is negligible. This is where a timing wheel, a different heap or
//! the sharded engine is judged: an op is one simulated second, so
//! `ops_per_s` is simulated seconds per host second.
//!
//! Motes are deployed staggered over the first 100 simulated seconds.
//! Deployed all at once, their first renewals fall due in the same
//! instant, serialise on the one simulated clock, and a fifth of the
//! leases lapse before their renewal is reached.

use sensorcer_core::prelude::*;
use sensorcer_exertion::ServiceAccessor;
use sensorcer_registry::prelude::*;
use sensorcer_sim::prelude::*;

use super::{
    average_expression, deploy_sampled_esp, elementary_sensors, probe, scripted_value, OpResult,
    ProbeKind, ShapeCount, Targets, World,
};
use crate::gen::{Op, OpGen};

pub const MOTES: usize = 20_000;
pub const SUBNETS: usize = 16;
/// Children of each subnet's composite: the first motes of that subnet.
pub const CHILDREN: usize = 16;
pub const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(5);
pub const LEASE: SimDuration = SimDuration::from_secs(300);
const STAGGER_SECS: usize = 100;

/// Subnet composites in turn, one per simulated second.
#[derive(Default)]
pub struct Gen(u16);

impl OpGen for Gen {
    fn next_op(&mut self) -> Op {
        let composite = self.0;
        self.0 = (self.0 + 1) % SUBNETS as u16;
        Op::Window { composite }
    }
}

/// One mote's power-up, as a branch of `Env::parallel`.
type Branch<'a> = Box<dyn FnOnce(&mut Env) + 'a>;

struct Subnet {
    gateway: HostId,
    lus: LusHandle,
    renewal: RenewalHandle,
    accessor: ServiceAccessor,
}

pub struct ScaleWorld {
    env: Env,
    client: HostId,
    subnets: Vec<Subnet>,
}

fn mote_name(i: usize) -> String {
    format!("M-{i:05}")
}

fn composite_name(s: usize) -> String {
    format!("Subnet-{s:02}")
}

impl ScaleWorld {
    pub fn new(seed: u64, kind: ProbeKind) -> ScaleWorld {
        let mut env = Env::with_seed(seed);
        let client = env.add_host("client", HostKind::Workstation);
        let mut subnets = Vec::with_capacity(SUBNETS);
        for s in 0..SUBNETS {
            let gateway = env.add_host(format!("gw{s}"), HostKind::Server);
            env.topo.set_subnet(gateway, SubnetId(s as u32));
            let lus = LookupService::deploy(
                &mut env,
                gateway,
                &format!("LUS-{s}"),
                &format!("subnet-{s}"),
                LeasePolicy {
                    max_duration: LEASE,
                    default_duration: LEASE,
                },
                SimDuration::from_secs(5),
            );
            let renewal = LeaseRenewalService::deploy(&mut env, gateway, &format!("Renewal-{s}"));
            subnets.push(Subnet {
                gateway,
                lus,
                renewal,
                accessor: ServiceAccessor::new(vec![lus]),
            });
        }

        // Mote `i` lives in subnet `i % SUBNETS`. Each simulated second one
        // batch powers up together (branches of one `parallel`, so their
        // registrations overlap instead of queueing on the clock).
        let per_sec = MOTES.div_ceil(STAGGER_SECS);
        for first in (0..MOTES).step_by(per_sec) {
            let subnets = &subnets;
            let branches: Vec<Branch<'_>> = (first..(first + per_sec).min(MOTES))
                .map(|i| {
                    Box::new(move |env: &mut Env| {
                        let sub = &subnets[i % SUBNETS];
                        let mote =
                            env.add_host(format!("{}-mote", mote_name(i)), HostKind::SensorMote);
                        env.topo.set_subnet(mote, SubnetId((i % SUBNETS) as u32));
                        let p = probe(env, kind, i);
                        deploy_sampled_esp(
                            env,
                            EspConfig {
                                lease: LEASE,
                                renewal: Some(sub.renewal),
                                sample_every: Some(SAMPLE_EVERY),
                                ..EspConfig::new(mote, mote_name(i), p, sub.lus)
                            },
                        );
                    }) as Branch<'_>
                })
                .collect();
            env.parallel(branches);
            env.run_for(SimDuration::from_secs(1));
        }

        for (s, sub) in subnets.iter().enumerate() {
            let mut cfg = CspConfig::new(sub.gateway, composite_name(s), sub.lus);
            cfg.lease = LEASE;
            cfg.renewal = Some(sub.renewal);
            cfg.children = (0..CHILDREN).map(|k| mote_name(s + k * SUBNETS)).collect();
            cfg.expression = Some(average_expression(CHILDREN));
            deploy_csp(&mut env, cfg).expect("composite deploys");
        }
        ScaleWorld {
            env,
            client,
            subnets,
        }
    }
}

impl World for ScaleWorld {
    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn apply(&mut self, op: &Op) -> Option<OpResult> {
        let Op::Window { composite } = *op else {
            panic!("the mote field has no step {op:?}");
        };
        self.env.run_for(SimDuration::from_secs(1));
        let s = usize::from(composite);
        Some(OpResult::reading(client::get_value(
            &mut self.env,
            self.client,
            &self.subnets[s].accessor,
            &composite_name(s),
        )))
    }

    fn targets(&self) -> Targets {
        let sub = &self.subnets[0];
        Targets {
            client: self.client,
            lus: sub.lus,
            registrar: sub.gateway,
            accessor: Some(sub.accessor.clone()),
            lookup_name: mote_name(0),
            lookup_template: elementary_sensors(),
            leaf: Some(mote_name(0)),
            composite: Some((composite_name(0), CHILDREN)),
            facade: None,
            admission: None,
            hier: None,
            slo_specs: Vec::new(),
            expr_arity: CHILDREN,
            shape_counts: vec![
                ShapeCount::local(
                    "sensors.probe.sample_ns",
                    MOTES as f64 / SAMPLE_EVERY.as_secs_f64() + CHILDREN as f64,
                ),
                ShapeCount::local("expr.program.bind_ns", 1.0),
                ShapeCount::local("exertion.context.build_ns", (CHILDREN + 1) as f64),
                // The requestor binds the composite by name.
                ShapeCount::remote("exertion.fmi.bind_ns", 1.0),
                // Every lease is renewed at a third of its term.
                ShapeCount::remote(
                    "registry.lus.renew_ns",
                    (MOTES + SUBNETS) as f64 / (LEASE.as_secs_f64() / 3.0),
                ),
                // Each subnet's reaper runs every 5 s.
                ShapeCount::local("registry.lus.reap_ns", SUBNETS as f64 / 5.0),
            ],
        }
    }

    /// Every lease was renewed in time and nothing fell out of a registry:
    /// the motes, the 16 composites, and each lookup service's own entry.
    fn verify(&mut self) -> Result<(), String> {
        let (failed, items) = self.registry_totals();
        let want = MOTES + 2 * SUBNETS;
        if failed == 0 && items == want {
            Ok(())
        } else {
            Err(format!(
                "{failed} renewals failed; {items} items registered, expected {want}"
            ))
        }
    }

    fn registry_totals(&mut self) -> (u64, usize) {
        let mut failed = 0;
        let mut items = 0;
        for sub in &self.subnets {
            failed += self
                .env
                .with_service(sub.renewal.service, |_e, r: &mut LeaseRenewalService| {
                    r.renewals_failed()
                })
                .expect("renewal service deployed");
            items += self
                .env
                .with_service(sub.lus.service, |_e, l: &mut LookupService| l.item_count())
                .expect("lookup service deployed");
        }
        (failed, items)
    }

    fn expected(&self, op: &Op) -> Option<f64> {
        let Op::Window { composite } = *op else {
            return None;
        };
        let s = usize::from(composite);
        Some(
            (0..CHILDREN)
                .map(|k| scripted_value(s + k * SUBNETS))
                .sum::<f64>()
                / CHILDREN as f64,
        )
    }
}
