//! `flat_read` and `tree_read`: one requestor reading one composite, back
//! to back, through `client::get_value`.
//!
//! * `flat_read` — 64 ESPs under one flat composite on the lab server. The
//!   ROADMAP's canonical read: CSP fan-out, exertion dispatch and
//!   `Env::call` do nearly all the work.
//! * `tree_read` — 512 ESPs under a 3-level 8-ary tree of 73 composites,
//!   each on its own server. Same CSP code used deep instead of wide: 73
//!   expression binds and 73 hub hosts per op.

use sensorcer_core::prelude::*;
use sensorcer_exertion::ServiceAccessor;
use sensorcer_sim::prelude::*;

use super::{
    average_expression, deploy_sampled_esp, elementary_sensors, lab_world, probe, scripted_value,
    OpResult, ProbeKind, ShapeCount, Targets, World, LONG_LEASE,
};
use crate::gen::{Op, OpGen};

pub const FLAT_SENSORS: usize = 64;
pub const TREE_SENSORS: usize = 512;
pub const TREE_FANOUT: usize = 8;

/// Every op is the same read; the seed reaches the program through the
/// world (link jitter, packet loss, sensor noise).
pub struct Gen;

impl OpGen for Gen {
    fn next_op(&mut self) -> Op {
        Op::Read { service: 0 }
    }
}

pub struct ReadWorld {
    env: Env,
    client: HostId,
    lab: HostId,
    lus: sensorcer_registry::lus::LusHandle,
    accessor: ServiceAccessor,
    root: String,
    /// A composite whose children are all ESPs, for the CSP unit cost.
    bottom: (String, usize),
    composites: usize,
    sensors: usize,
}

impl ReadWorld {
    fn sensors(seed: u64, kind: ProbeKind, n: usize) -> (ReadWorld, Vec<String>) {
        let (mut env, lab, client, lus) = lab_world(seed);
        let mut names = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("Sensor-{i:03}");
            let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            let p = probe(&mut env, kind, i);
            deploy_sampled_esp(
                &mut env,
                EspConfig {
                    lease: LONG_LEASE,
                    ..EspConfig::new(mote, name.clone(), p, lus)
                },
            );
            names.push(name);
        }
        let world = ReadWorld {
            env,
            client,
            lab,
            lus,
            accessor: ServiceAccessor::new(vec![lus]),
            root: String::new(),
            bottom: (String::new(), 0),
            composites: 0,
            sensors: n,
        };
        (world, names)
    }

    fn composite(&mut self, host: HostId, name: &str, children: &[String]) {
        let mut cfg = CspConfig::new(host, name, self.lus);
        cfg.lease = LONG_LEASE;
        cfg.children = children.to_vec();
        cfg.expression = Some(average_expression(children.len()));
        deploy_csp(&mut self.env, cfg).expect("composite deploys");
        self.composites += 1;
    }

    pub fn flat(seed: u64, kind: ProbeKind) -> ReadWorld {
        let (mut w, names) = ReadWorld::sensors(seed, kind, FLAT_SENSORS);
        let lab = w.lab;
        w.composite(lab, "All", &names);
        w.root = "All".into();
        w.bottom = ("All".into(), names.len());
        w
    }

    pub fn tree(seed: u64, kind: ProbeKind) -> ReadWorld {
        let (mut w, mut level) = ReadWorld::sensors(seed, kind, TREE_SENSORS);
        while level.len() > 1 {
            let mut parents = Vec::new();
            for chunk in level.chunks(TREE_FANOUT) {
                let name = format!("Agg-{:03}", w.composites);
                let host = w.env.add_host(format!("{name}-host"), HostKind::Server);
                w.composite(host, &name, chunk);
                parents.push(name);
            }
            level = parents;
        }
        w.root = level.pop().expect("a tree has a root");
        w.bottom = ("Agg-000".into(), TREE_FANOUT);
        w
    }
}

impl World for ReadWorld {
    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn apply(&mut self, op: &Op) -> Option<OpResult> {
        match op {
            Op::Read { .. } => Some(OpResult::reading(client::get_value(
                &mut self.env,
                self.client,
                &self.accessor,
                &self.root,
            ))),
            other => panic!("read worlds have no step {other:?}"),
        }
    }

    fn targets(&self) -> Targets {
        Targets {
            client: self.client,
            lus: self.lus,
            registrar: self.lab,
            accessor: Some(self.accessor.clone()),
            lookup_name: "Sensor-000".into(),
            lookup_template: elementary_sensors(),
            leaf: Some("Sensor-000".into()),
            composite: Some(self.bottom.clone()),
            facade: None,
            admission: None,
            hier: None,
            slo_specs: Vec::new(),
            expr_arity: self.bottom.1,
            shape_counts: vec![
                ShapeCount::local("sensors.probe.sample_ns", self.sensors as f64),
                ShapeCount::local("expr.program.bind_ns", self.composites as f64),
                // One task per provider read.
                ShapeCount::local(
                    "exertion.context.build_ns",
                    (self.sensors + self.composites) as f64,
                ),
                // The requestor binds the root by name.
                ShapeCount::remote("exertion.fmi.bind_ns", 1.0),
            ],
        }
    }

    /// Equal-sized groups all the way up, so the mean of means is the
    /// mean of every sensor.
    fn expected(&self, _op: &Op) -> Option<f64> {
        Some((0..self.sensors).map(scripted_value).sum::<f64>() / self.sensors as f64)
    }
}
