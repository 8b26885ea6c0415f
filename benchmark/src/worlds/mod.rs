//! The five workloads: for each, a seeded step generator and the world
//! the steps run against.

pub mod mote_scale;
pub mod reads;
pub mod registry_churn;
pub mod tenant_storm;

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use sensorcer_core::prelude::*;
use sensorcer_exertion::{ServiceAccessor, ServicerBox};
use sensorcer_obs::SloSpec;
use sensorcer_registry::prelude::*;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

use crate::gen::{Op, OpGen};

/// How an op ended. `Shed` is a typed `AdmissionRejected`: the system
/// refusing work it was configured to refuse, not a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Degraded,
    Shed,
    Failed,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpResult {
    pub outcome: Outcome,
    /// The reading (or, for a registry tick, the number of items its
    /// lookups returned). Zero when the op produced no value.
    pub value: f64,
    /// The value is finite and inside the range its sensors can report.
    pub valid: bool,
}

impl OpResult {
    /// A sensor reading, range-checked against the SunSPOT TEDS every
    /// sensor in these worlds carries (composites average their children,
    /// so the range carries up the tree).
    pub fn reading(res: Result<SensorReading, String>) -> OpResult {
        match res {
            Ok(r) => OpResult {
                outcome: if r.good {
                    Outcome::Ok
                } else {
                    Outcome::Degraded
                },
                value: r.value,
                valid: (TEDS_MIN..=TEDS_MAX).contains(&r.value),
            },
            Err(e) if is_rejection(&e) => OpResult {
                outcome: Outcome::Shed,
                value: 0.0,
                valid: true,
            },
            Err(e) => {
                // No op is meant to fail, so say why the first few did.
                static SHOWN: AtomicU32 = AtomicU32::new(0);
                if SHOWN.fetch_add(1, Relaxed) < 5 {
                    eprintln!("read failed: {e}");
                }
                OpResult {
                    outcome: Outcome::Failed,
                    value: 0.0,
                    valid: true,
                }
            }
        }
    }
}

pub const TEDS_MIN: f64 = -40.0;
pub const TEDS_MAX: f64 = 105.0;

/// What sits behind each ESP: the seeded SunSPOT model for measurement,
/// or a known constant for `--check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    Simulated,
    Scripted,
}

/// The constant sensor `i` reports in a scripted world. Multiples of 1/8
/// are exact in binary, so expected means are too.
pub fn scripted_value(i: usize) -> f64 {
    20.0 + (i % 64) as f64 * 0.125
}

/// What the layer probes may touch in a live world. `None`/empty means
/// the workload has no such layer and its probes report 0.
pub struct Targets {
    pub client: HostId,
    /// The lookup service the registry probes exercise.
    pub lus: LusHandle,
    /// A host on the LUS's LAN to issue registry calls from.
    pub registrar: HostId,
    pub accessor: Option<ServiceAccessor>,
    /// A name the LUS holds, for the by-name lookup.
    pub lookup_name: String,
    /// An interface-plus-attribute template that matches at least 16 of
    /// the LUS's items, for the template lookup.
    pub lookup_template: ServiceTemplate,
    /// An ESP, by name.
    pub leaf: Option<String>,
    /// A composite, by name, and how many children it reads.
    pub composite: Option<(String, usize)>,
    pub facade: Option<FacadeHandle>,
    pub admission: Option<SharedAdmission>,
    pub hier: Option<HierHandle>,
    pub slo_specs: Vec<SloSpec>,
    /// Variables the workload's expressions bind.
    pub expr_arity: usize,
    /// How often one op pays each unit cost that no public counter
    /// reports, from the world's shape.
    pub shape_counts: Vec<ShapeCount>,
}

/// Every ESP of the sensor worlds matches this one.
pub fn elementary_sensors() -> ServiceTemplate {
    ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR)
        .and_attr(AttrMatch::service_type("ELEMENTARY"))
}

/// One row of the ledger that a world declares.
pub struct ShapeCount {
    /// The per-layer unit cost paid.
    pub metric: &'static str,
    pub per_op: f64,
    /// `Env::call`s one unit contains. The ledger charges every call by
    /// measured count, so it takes these back out of the unit cost.
    pub env_calls: f64,
}

impl ShapeCount {
    /// A unit that makes no remote call.
    pub fn local(metric: &'static str, per_op: f64) -> ShapeCount {
        ShapeCount {
            metric,
            per_op,
            env_calls: 0.0,
        }
    }

    /// A unit that is one remote call, such as a registry handle method.
    pub fn remote(metric: &'static str, per_op: f64) -> ShapeCount {
        ShapeCount {
            metric,
            per_op,
            env_calls: 1.0,
        }
    }
}

impl Targets {
    pub fn shape_count(&self, metric: &str) -> f64 {
        self.shape_counts
            .iter()
            .find(|c| c.metric == metric)
            .map_or(0.0, |c| c.per_op)
    }
}

pub trait World {
    fn env(&mut self) -> &mut Env;
    /// Run one step. `None` for a control step.
    fn apply(&mut self, op: &Op) -> Option<OpResult>;
    fn targets(&self) -> Targets;
    /// Invariants of the whole run, checked once at its end.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// In a scripted world, the exact value a clean `op` must return.
    fn expected(&self, _op: &Op) -> Option<f64> {
        None
    }
    /// Renewals that failed, and items registered, over the world's
    /// lookup services.
    fn registry_totals(&mut self) -> (u64, usize) {
        let lus = self.targets().lus;
        let items = self
            .env()
            .with_service(lus.service, |_env, l: &mut LookupService| l.item_count())
            .expect("lookup service deployed");
        (0, items)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FlatRead,
    TreeRead,
    TenantStorm,
    RegistryChurn,
    MoteScale,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FlatRead,
        Workload::TreeRead,
        Workload::TenantStorm,
        Workload::RegistryChurn,
        Workload::MoteScale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatRead => "flat_read",
            Workload::TreeRead => "tree_read",
            Workload::TenantStorm => "tenant_storm",
            Workload::RegistryChurn => "registry_churn",
            Workload::MoteScale => "mote_scale",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops run untimed after the world is built, so caches (CSP bindings,
    /// last-good values, the SLO windows) are in their steady state.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::FlatRead => 2_000,
            Workload::TreeRead => 300,
            Workload::TenantStorm => 6_000,
            Workload::RegistryChurn => 600,
            Workload::MoteScale => 40,
        }
    }

    /// Ops in the count pass. Frozen: the deterministic metrics and
    /// `result_fnv64` are functions of (seed, commit, this number).
    pub fn count_ops(self) -> usize {
        match self {
            Workload::FlatRead => 6_000,
            Workload::TreeRead => 1_000,
            Workload::TenantStorm => 30_000,
            Workload::RegistryChurn => 3_000,
            Workload::MoteScale => 150,
        }
    }

    pub fn generator(self, seed: u64) -> Box<dyn OpGen> {
        match self {
            Workload::FlatRead | Workload::TreeRead => Box::new(reads::Gen),
            Workload::TenantStorm => Box::new(tenant_storm::Gen::new(seed)),
            Workload::RegistryChurn => Box::new(registry_churn::Gen::new(seed)),
            Workload::MoteScale => Box::new(mote_scale::Gen::default()),
        }
    }

    pub fn build(self, seed: u64, kind: ProbeKind) -> Box<dyn World> {
        match self {
            Workload::FlatRead => Box::new(reads::ReadWorld::flat(seed, kind)),
            Workload::TreeRead => Box::new(reads::ReadWorld::tree(seed, kind)),
            Workload::TenantStorm => Box::new(tenant_storm::StormWorld::new(seed, kind)),
            Workload::RegistryChurn => Box::new(registry_churn::ChurnWorld::new(seed)),
            Workload::MoteScale => Box::new(mote_scale::ScaleWorld::new(seed, kind)),
        }
    }

    /// Everything the program under test is given for `n` ops, as bytes:
    /// the world seed and the encoded steps.
    pub fn encode_inputs(self, seed: u64, n: usize) -> Vec<u8> {
        let mut out = seed.to_le_bytes().to_vec();
        let mut gen = self.generator(seed);
        let mut ops = 0;
        while ops < n {
            let op = gen.next_op();
            if !op.is_control() {
                ops += 1;
            }
            op.encode(&mut out);
        }
        out
    }
}

/// A lease no run outlives: 100 simulated hours, where the fastest
/// workload covers about four per host minute. The read worlds register
/// once and never renew, so that nothing but reads happens in them.
pub const LONG_LEASE: SimDuration = SimDuration::from_secs(360_000);

pub fn long_lease_policy() -> LeasePolicy {
    LeasePolicy {
        max_duration: LONG_LEASE,
        default_duration: LONG_LEASE,
    }
}

/// A lab server with a lookup service and a client workstation.
pub fn lab_world(seed: u64) -> (Env, HostId, HostId, LusHandle) {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    env.topo.join_group(client, "public");
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "Lookup Service",
        "public",
        long_lease_policy(),
        SimDuration::from_secs(1),
    );
    (env, lab, client, lus)
}

/// The probe behind sensor number `i`.
pub fn probe(env: &mut Env, kind: ProbeKind, i: usize) -> Box<dyn SensorProbe> {
    match kind {
        ProbeKind::Simulated => {
            Box::new(sunspot_temperature(&format!("SN-{i:05}"), env.fork_rng()))
        }
        ProbeKind::Scripted => Box::new(ScriptedProbe::new(vec![scripted_value(i)], Unit::Celsius)),
    }
}

/// Deploy an ESP that has taken its first sample, as a mote does when it
/// powers up. Without it a transducer dropout (0.2 % of samples) on the
/// very first read finds the local store empty and fails the read: with
/// 512 sensors, two trees in three would fail their first op.
pub fn deploy_sampled_esp(env: &mut Env, config: EspConfig) -> EspHandle {
    let esp = deploy_esp(env, config);
    env.with_service(esp.service, |env, sb: &mut ServicerBox| {
        let provider = sb
            .downcast_mut::<ElementarySensorProvider>()
            .expect("an ESP was deployed here");
        while provider.store().is_empty() {
            if provider.sample_now(env).is_err() {
                // Past the transducer's minimum sampling interval.
                env.consume(SimDuration::from_millis(20));
            }
        }
    })
    .expect("the ESP is reachable");
    esp
}

/// The paper's averaging expression over `n` children: `(a + b + c)/3`.
pub fn average_expression(n: usize) -> String {
    let vars: Vec<String> = (0..n).map(variable_for).collect();
    format!("({})/{n}", vars.join(" + "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same bytes; another seed, other bytes — for all five.
    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let n = match w {
                Workload::RegistryChurn => 50,
                _ => 2_000,
            };
            let a = w.encode_inputs(42, n);
            assert_eq!(a, w.encode_inputs(42, n), "{}: seed 42 twice", w.name());
            assert_ne!(a, w.encode_inputs(7, n), "{}: seed 42 vs 7", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn average_expression_is_the_papers() {
        assert_eq!(average_expression(3), "(a + b + c)/3");
        let p = sensorcer_expr::Program::compile(&average_expression(64)).unwrap();
        assert_eq!(p.inputs().len(), 64);
    }
}
