//! Per-layer unit costs, timed from outside the layers.
//!
//! Each probe calls one layer's public entry point on the live workload
//! world and records the call as a span named after the metric it feeds.
//! A layer the workload's world does not have is skipped and reports 0.
//! Probes that cross the simulated network advance simulated time, which
//! is why they run in the traced pass only: nothing deterministic is read
//! from it.

use sensorcer_core::prelude::*;
use sensorcer_exertion::prelude::*;
use sensorcer_expr::{Program, SlotFrame, Value};
use sensorcer_obs::{ReadOutcome, SloEngine};
use sensorcer_registry::prelude::*;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

use crate::gen::Op;
use crate::trace::Recorder;
use crate::worlds::{average_expression, Outcome as OpOutcome, Targets};

/// The tenant the admission and façade probes run as: registered with a
/// quota no probe rate can exhaust, so it is never queued or shed.
const PROBE_TENANT: &str = "bench-probe";

/// Target of the `Env::call` probe.
struct Noop;

pub struct Probes {
    t: Targets,
    noop: ServiceId,
    /// The leaf ESP, bound once, for the bare FMI hop.
    leaf_service: Option<ServiceId>,
    expression: String,
    program: Program,
    frame: SlotFrame,
    vars: Vec<String>,
    sensor: SimulatedProbe,
    sensor_clock: SimTime,
    /// A copy of the façade's SLO engine fed the same reads, because the
    /// live one is private to the façade.
    slo: Option<SloEngine>,
    registered: u64,
}

impl Probes {
    pub fn new(env: &mut Env, t: Targets) -> Probes {
        let noop = env.deploy(t.registrar, "bench-noop", Noop);
        let leaf_service = match (&t.accessor, &t.leaf) {
            (Some(accessor), Some(leaf)) => accessor
                .bind(env, t.client, interfaces::SENSOR_DATA_ACCESSOR, Some(leaf))
                .map(|item| item.service),
            _ => None,
        };
        if let Some(gate) = &t.admission {
            gate.borrow_mut().register(
                PROBE_TENANT,
                TenantPolicy::new(QosClass::Critical, 1e9, 1e9, u32::MAX),
            );
        }
        let arity = t.expr_arity.max(1);
        let expression = average_expression(arity);
        let slo = (!t.slo_specs.is_empty()).then(|| SloEngine::new(t.slo_specs.clone()));
        Probes {
            noop,
            leaf_service,
            program: Program::compile(&expression).expect("the averaging expression compiles"),
            expression,
            frame: SlotFrame::new(),
            vars: (0..arity).map(variable_for).collect(),
            sensor: sunspot_temperature("SN-probe", SimRng::new(1)),
            sensor_clock: SimTime::ZERO,
            slo,
            registered: 0,
            t,
        }
    }

    /// Keep the SLO copy in step with the façade's engine: it sees every
    /// façade read the live one saw. Objective `i` covers composite `i`.
    pub fn observe(&mut self, env: &Env, op: &Op, outcome: OpOutcome) {
        if let (Some(slo), Op::FacadeRead { service, .. }) = (self.slo.as_mut(), op) {
            let service = &self.t.slo_specs[usize::from(*service)].service;
            let now = env.now();
            let outcome = match outcome {
                OpOutcome::Ok => ReadOutcome::Ok,
                OpOutcome::Degraded => ReadOutcome::Degraded,
                OpOutcome::Shed | OpOutcome::Failed => ReadOutcome::Error,
            };
            slo.record_read(now, service, outcome, 0);
            slo.evaluate(now);
        }
    }

    /// Run every probe the world supports once, as child spans of `op`.
    pub fn replay(&mut self, env: &mut Env, rec: &mut Recorder, op: usize) {
        let client = self.t.client;
        let registrar = self.t.registrar;
        let lus = self.t.lus;

        // --- sim -----------------------------------------------------
        // Timers the last op left overdue fire here, outside any span.
        let now = env.now();
        env.run_until(now);
        rec.time(op, "sim.env.timer_ns", 32, || {
            env.schedule(SimDuration::ZERO, |_env| {});
            let now = env.now();
            env.run_until(now);
        });
        let noop = self.noop;
        rec.time(op, "sim.env.call_ns", 16, || {
            env.call(
                client,
                noop,
                ProtocolStack::Tcp,
                16,
                |_env, _n: &mut Noop| ((), 16),
            )
        });
        rec.time(op, "sim.metrics.add_ns", 64, || {
            env.metrics.add_host(client, "bench.probe.adds", 1)
        });

        // --- registry ------------------------------------------------
        let by_name = ServiceTemplate::by_name(self.t.lookup_name.clone());
        rec.time(op, "registry.lus.lookup_one_ns", 4, || {
            lus.lookup_one(env, client, &by_name)
        });
        let universal: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        rec.time(op, "registry.lus.lookup_iface_ns", 4, || {
            lus.lookup_interface_uuids(env, client, &universal)
        });
        let template = &self.t.lookup_template;
        rec.time(op, "registry.lus.lookup_template_ns", 2, || {
            lus.lookup(env, client, template, 16)
        });
        let item = ServiceItem::new(
            SvcUuid::NIL,
            registrar,
            self.noop,
            vec!["BenchProbe".into()],
            vec![Entry::Name(format!("bench-probe-{}", self.registered))],
        );
        self.registered += 1;
        let mut item = Some(item);
        let mut registration = None;
        rec.time(op, "registry.lus.register_ns", 1, || {
            let item = item.take().expect("registered once");
            registration = lus
                .register(env, registrar, item, Some(SimDuration::from_secs(60)))
                .ok();
        });
        if let Some(reg) = registration {
            rec.time(op, "registry.lus.renew_ns", 4, || {
                lus.renew(
                    env,
                    registrar,
                    reg.lease.id,
                    Some(SimDuration::from_secs(60)),
                )
            });
            rec.time(op, "registry.lus.modify_attributes_ns", 4, || {
                env.with_service(lus.service, |env, l: &mut LookupService| {
                    l.modify_attributes(env, reg.uuid, vec![Entry::Name("bench-probe".into())])
                })
            });
            rec.time(op, "registry.lus.cancel_ns", 1, || {
                lus.cancel(env, registrar, reg.lease.id)
            });
        }
        rec.time(op, "registry.lus.reap_ns", 1, || {
            env.with_service(lus.service, |env, l: &mut LookupService| l.reap(env))
        });
        if let Some(root) = self.t.hier {
            let rare: InterfaceId = "RareProbe".into();
            rec.time(op, "registry.hier.rare_query_ns", 1, || {
                root.lookup_all_by_interface(env, client, &rare)
            });
            rec.time(op, "registry.hier.universal_query_ns", 1, || {
                root.lookup_all_by_interface(env, client, &universal)
            });
        }

        // --- exertion and the providers ------------------------------
        if let (Some(accessor), Some(leaf)) = (&self.t.accessor, &self.t.leaf) {
            let read_task = || {
                Task::new(
                    format!("read {leaf}"),
                    Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE).on(leaf),
                    Context::new(),
                )
            };
            rec.time(op, "exertion.context.build_ns", 16, || {
                Exertion::from(read_task())
            });
            rec.time(op, "exertion.fmi.bind_ns", 4, || {
                accessor.bind(env, client, interfaces::SENSOR_DATA_ACCESSOR, Some(leaf))
            });
            if let Some(service) = self.leaf_service {
                rec.time(op, "exertion.fmi.exert_ns", 8, || {
                    exert_on(env, client, service, read_task().into(), None)
                });
            }
            rec.time(op, "core.esp.read_ns", 4, || {
                client::get_value(env, client, accessor, leaf)
            });
            if let Some((composite, _)) = &self.t.composite {
                rec.time(op, "core.csp.read_ns", 2, || {
                    client::get_value(env, client, accessor, composite)
                });
                if let Some(facade) = self.t.facade {
                    rec.time(op, "core.facade.read_ns", 2, || {
                        facade.get_value_as(env, client, PROBE_TENANT, composite)
                    });
                }
            }
        }
        if let Some(gate) = &self.t.admission {
            rec.time(op, "core.admission.admit_ns", 16, || {
                let admitted = admit(env, gate, PROBE_TENANT).is_ok();
                gate.borrow_mut().complete(PROBE_TENANT);
                admitted
            });
        }

        // --- leaves: expression, sensor, SLO, none touches the world ---
        if self.t.expr_arity > 0 {
            let expression = &self.expression;
            rec.time(op, "expr.program.compile_ns", 1, || {
                Program::compile(expression)
            });
            let bindings: Vec<(&str, Value)> = self
                .vars
                .iter()
                .enumerate()
                .map(|(i, v)| (v.as_str(), Value::Float(20.0 + i as f64)))
                .collect();
            let (program, frame) = (&self.program, &mut self.frame);
            rec.time(op, "expr.program.bind_ns", 32, || {
                program.bind_in(&bindings, frame)
            });
        }
        if self.t.leaf.is_some() {
            let (sensor, clock) = (&mut self.sensor, &mut self.sensor_clock);
            rec.time(op, "sensors.probe.sample_ns", 32, || {
                // Past the transducer's 10 ms minimum sampling interval.
                *clock += SimDuration::from_millis(20);
                sensor.sample(*clock)
            });
        }
        if let (Some(slo), Some((composite, _))) = (self.slo.as_mut(), &self.t.composite) {
            let now = env.now();
            rec.time(op, "obs.slo.record_ns", 4, || {
                // What the façade does around every read it serves.
                slo.record_read(now, composite, ReadOutcome::Ok, 1_000_000);
                slo.record_freshness(now, composite, 0);
                slo.evaluate(now)
            });
        }
    }

    /// The flight recorder's cost per span, with tracing switched on in
    /// the simulator for the duration of the probe.
    pub fn span_cost(&self, env: &mut Env, rec: &mut Recorder, op: usize) {
        let client = self.t.client;
        env.enable_tracing(4096);
        rec.time(op, "trace.recorder.span_ns", 256, || {
            let span = env.span_start("bench.probe", "span", client);
            env.span_end(span, sensorcer_sim::trace::Outcome::Ok);
        });
        env.disable_tracing();
    }
}
