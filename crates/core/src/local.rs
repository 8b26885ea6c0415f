//! Local (embedded) deployment mode: real threads, no simulation.
//!
//! The simulated mode answers the paper's *distributed-systems* questions;
//! this mode answers the *throughput* question a downstream user has when
//! they embed SenSORCER composites in a single process: how fast can a
//! composite tree be evaluated over live probes? A parallel read samples
//! the leaves on scoped threads and folds them like a sequential one (B8
//! measures the two).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sensorcer_expr::Program;
use sensorcer_sensors::probe::{ProbeError, SensorProbe};
use sensorcer_sim::time::SimTime;

use crate::csp::variable_for;

/// A leaf's live probe behind its lock.
type Probe = Mutex<Box<dyn SensorProbe + Send>>;

/// A node in a local composite tree.
pub enum LocalNode {
    /// A leaf sensor: a live probe behind a lock (probes are stateful).
    Sensor { name: String, probe: Probe },
    /// An inner composite: children plus an optional compute expression
    /// over variables `a`, `b`, … (position order, like the CSP).
    Composite {
        name: String,
        children: Vec<Arc<LocalNode>>,
        expression: Option<Program>,
    },
}

/// Errors from a local read.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalReadError {
    Probe { sensor: String, error: String },
    Expression { composite: String, error: String },
    EmptyComposite { composite: String },
}

impl std::fmt::Display for LocalReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalReadError::Probe { sensor, error } => write!(f, "probe '{sensor}': {error}"),
            LocalReadError::Expression { composite, error } => {
                write!(f, "expression in '{composite}': {error}")
            }
            LocalReadError::EmptyComposite { composite } => {
                write!(f, "composite '{composite}' has no children")
            }
        }
    }
}

impl std::error::Error for LocalReadError {}

impl LocalNode {
    /// Leaf constructor.
    pub fn sensor(name: impl Into<String>, probe: Box<dyn SensorProbe + Send>) -> Arc<LocalNode> {
        Arc::new(LocalNode::Sensor {
            name: name.into(),
            probe: Mutex::new(probe),
        })
    }

    /// Composite constructor; `expression` over `a`, `b`, … in child
    /// order, or `None` for the average.
    pub fn composite(
        name: impl Into<String>,
        children: Vec<Arc<LocalNode>>,
        expression: Option<&str>,
    ) -> Result<Arc<LocalNode>, String> {
        let name = name.into();
        let program = match expression {
            Some(src) => {
                let p = Program::compile(src).map_err(|e| e.to_string())?;
                let vars: Vec<String> = (0..children.len()).map(variable_for).collect();
                let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                let missing = p.missing_inputs(&var_refs);
                if !missing.is_empty() {
                    return Err(format!(
                        "expression in '{name}' references unbound variable(s): {}",
                        missing.join(", ")
                    ));
                }
                Some(p)
            }
            None => None,
        };
        Ok(Arc::new(LocalNode::Composite {
            name,
            children,
            expression: program,
        }))
    }

    pub fn name(&self) -> &str {
        match self {
            LocalNode::Sensor { name, .. } | LocalNode::Composite { name, .. } => name,
        }
    }

    /// Number of leaf sensors below (and including) this node.
    pub fn leaf_count(&self) -> usize {
        match self {
            LocalNode::Sensor { .. } => 1,
            LocalNode::Composite { children, .. } => children.iter().map(|c| c.leaf_count()).sum(),
        }
    }

    /// Sequential read at logical time `at`.
    pub fn read_sequential(&self, at: SimTime) -> Result<f64, LocalReadError> {
        self.fold(&mut |name, probe| sample(name, probe, at))
    }

    /// Parallel read: the leaves, gathered in depth-first order, are
    /// sampled by `threads` scoped workers that each take the next
    /// unread leaf, then fold as [`LocalNode::read_sequential`] does.
    /// Every leaf is sampled even when an earlier one fails; the error
    /// returned is still the first in depth-first order.
    pub fn read_parallel(&self, threads: usize, at: SimTime) -> Result<f64, LocalReadError> {
        let mut leaves = Vec::new();
        self.gather(&mut leaves);
        let next = AtomicUsize::new(0);
        let work = || {
            let mut read = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((name, probe)) = leaves.get(i) else {
                    return read;
                };
                read.push((i, sample(name, probe, at)));
            }
        };
        let mut read = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads.min(leaves.len()))
                .map(|_| s.spawn(work))
                .collect();
            let mut read = work();
            for h in helpers {
                read.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            read
        });
        read.sort_unstable_by_key(|&(i, _)| i);
        let mut read = read.into_iter().map(|(_, r)| r);
        // Every leaf was read above, in this order; sampling here is only
        // the fallback that spares an `expect`.
        self.fold(&mut |name, probe| read.next().unwrap_or_else(|| sample(name, probe, at)))
    }

    /// The sequential read with `leaf` in place of sampling: children
    /// left to right, stopping at the first error.
    fn fold(
        &self,
        leaf: &mut impl FnMut(&str, &Probe) -> Result<f64, LocalReadError>,
    ) -> Result<f64, LocalReadError> {
        match self {
            LocalNode::Sensor { name, probe } => leaf(name, probe),
            LocalNode::Composite {
                name,
                children,
                expression,
            } => {
                if children.is_empty() {
                    return Err(LocalReadError::EmptyComposite {
                        composite: name.clone(),
                    });
                }
                let mut values = Vec::with_capacity(children.len());
                for child in children {
                    values.push(child.fold(leaf)?);
                }
                combine(name, expression.as_ref(), &values)
            }
        }
    }

    /// Every leaf below this node, in depth-first order.
    fn gather<'a>(&'a self, out: &mut Vec<(&'a str, &'a Probe)>) {
        match self {
            LocalNode::Sensor { name, probe } => out.push((name, probe)),
            LocalNode::Composite { children, .. } => {
                for child in children {
                    child.gather(out);
                }
            }
        }
    }
}

fn sample(name: &str, probe: &Probe, at: SimTime) -> Result<f64, LocalReadError> {
    let error = match probe.lock().map(|mut p| p.sample(at)) {
        Ok(Ok(m)) => return Ok(m.value),
        Ok(Err(e @ ProbeError::Dropout))
        | Ok(Err(e @ ProbeError::BatteryDead))
        | Ok(Err(e @ ProbeError::TooFast)) => e.to_string(),
        // A probe that panicked mid-sample may be left half-updated.
        Err(_) => "poisoned by a panic in an earlier sample".to_string(),
    };
    Err(LocalReadError::Probe {
        sensor: name.to_string(),
        error,
    })
}

fn combine(
    name: &str,
    expression: Option<&Program>,
    values: &[f64],
) -> Result<f64, LocalReadError> {
    match expression {
        Some(p) => {
            let bindings = values
                .iter()
                .enumerate()
                .map(|(i, v)| (variable_for(i), *v));
            match p.eval_with(bindings) {
                Ok(v) => v.as_f64().ok_or_else(|| LocalReadError::Expression {
                    composite: name.to_string(),
                    error: format!("non-numeric result {v}"),
                }),
                Err(e) => Err(LocalReadError::Expression {
                    composite: name.to_string(),
                    error: e.to_string(),
                }),
            }
        }
        None => Ok(values.iter().sum::<f64>() / values.len() as f64),
    }
}

/// A local federation: a composite tree plus a logical clock, ready for
/// repeated reads.
pub struct LocalFederation {
    root: Arc<LocalNode>,
    clock_ns: AtomicU64,
    /// Logical nanoseconds advanced per read (keeps probes' minimum
    /// sampling intervals satisfied).
    pub tick_ns: u64,
}

impl LocalFederation {
    pub fn new(root: Arc<LocalNode>) -> LocalFederation {
        LocalFederation {
            root,
            clock_ns: AtomicU64::new(0),
            tick_ns: 1_000_000_000,
        }
    }

    pub fn root(&self) -> &Arc<LocalNode> {
        &self.root
    }

    fn next_time(&self) -> SimTime {
        SimTime(self.clock_ns.fetch_add(self.tick_ns, Ordering::Relaxed) + self.tick_ns)
    }

    /// One sequential read of the whole tree.
    pub fn read_sequential(&self) -> Result<f64, LocalReadError> {
        self.root.read_sequential(self.next_time())
    }

    /// One parallel read of the whole tree on `threads` threads.
    pub fn read_parallel(&self, threads: usize) -> Result<f64, LocalReadError> {
        self.root.read_parallel(threads, self.next_time())
    }
}

/// A probe that burns CPU per sample, standing in for real acquisition
/// work (ADC conversion, driver I/O, digital filtering). `work_iters`
/// rounds of arithmetic per sample; the result feeds the value so the
/// optimizer cannot remove it.
pub struct BusyProbe {
    teds: sensorcer_sensors::teds::Teds,
    value: f64,
    work_iters: u32,
}

impl BusyProbe {
    pub fn new(value: f64, work_iters: u32) -> BusyProbe {
        let teds = sensorcer_sensors::teds::Teds {
            manufacturer: "bench".into(),
            model: "busy".into(),
            serial: "0".into(),
            unit: sensorcer_sensors::units::Unit::Celsius,
            range_min: f64::NEG_INFINITY,
            range_max: f64::INFINITY,
            resolution: 0.0,
            min_sample_interval_ns: 0,
            technology: "synthetic".into(),
        };
        BusyProbe {
            teds,
            value,
            work_iters,
        }
    }
}

impl SensorProbe for BusyProbe {
    fn sample(
        &mut self,
        now: SimTime,
    ) -> Result<sensorcer_sensors::units::Measurement, ProbeError> {
        let mut acc = self.value;
        for i in 0..self.work_iters {
            acc = (acc + i as f64 * 1e-12).sin().mul_add(1e-9, self.value);
        }
        let value = std::hint::black_box(acc);
        Ok(sensorcer_sensors::units::Measurement::good(
            value,
            sensorcer_sensors::units::Unit::Celsius,
            now,
        ))
    }

    fn teds(&self) -> &sensorcer_sensors::teds::Teds {
        &self.teds
    }
}

/// Build a balanced synthetic composite tree for benches: `depth` levels
/// of composites with `fanout` children, leaves reading constant probes.
pub fn synthetic_tree(depth: usize, fanout: usize, leaf_value: f64) -> Arc<LocalNode> {
    synthetic_tree_with_work(depth, fanout, leaf_value, 0)
}

/// Like [`synthetic_tree`], with `work_iters` rounds of CPU work per leaf
/// sample (see [`BusyProbe`]).
pub fn synthetic_tree_with_work(
    depth: usize,
    fanout: usize,
    leaf_value: f64,
    work_iters: u32,
) -> Arc<LocalNode> {
    fn build(
        level: usize,
        fanout: usize,
        leaf_value: f64,
        work_iters: u32,
        path: &mut String,
    ) -> Arc<LocalNode> {
        if level == 0 {
            let probe: Box<dyn SensorProbe + Send> = if work_iters == 0 {
                Box::new(sensorcer_sensors::probe::ScriptedProbe::new(
                    vec![leaf_value],
                    sensorcer_sensors::units::Unit::Celsius,
                ))
            } else {
                Box::new(BusyProbe::new(leaf_value, work_iters))
            };
            return LocalNode::sensor(format!("leaf{path}"), probe);
        }
        let children = (0..fanout)
            .map(|i| {
                path.push_str(&format!(".{i}"));
                let c = build(level - 1, fanout, leaf_value, work_iters, path);
                path.truncate(path.len() - format!(".{i}").len());
                c
            })
            .collect();
        // The average: there is no expression to validate.
        Arc::new(LocalNode::Composite {
            name: format!("node{path}"),
            children,
            expression: None,
        })
    }
    let mut path = String::new();
    build(depth, fanout, leaf_value, work_iters, &mut path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sensors::prelude::*;
    use sensorcer_sim::rng::SimRng;

    fn leaf(name: &str, v: f64) -> Arc<LocalNode> {
        LocalNode::sensor(name, Box::new(ScriptedProbe::new(vec![v], Unit::Celsius)))
    }

    #[test]
    fn sequential_matches_expression() {
        let tree = LocalNode::composite(
            "avg3",
            vec![leaf("n", 20.0), leaf("j", 22.0), leaf("d", 27.0)],
            Some("(a + b + c)/3"),
        )
        .unwrap();
        let fed = LocalFederation::new(tree);
        assert_eq!(fed.read_sequential().unwrap(), 23.0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let tree = synthetic_tree(3, 3, 21.0);
        assert_eq!(tree.leaf_count(), 27);
        let fed = LocalFederation::new(tree);
        let seq = fed.read_sequential().unwrap();
        let par = fed.read_parallel(4).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq, 21.0, "average of constant leaves");
    }

    #[test]
    fn nested_expressions_compose() {
        let inner = LocalNode::composite(
            "subnet",
            vec![leaf("n", 20.0), leaf("j", 22.0), leaf("d", 27.0)],
            Some("(a + b + c)/3"),
        )
        .unwrap();
        let outer =
            LocalNode::composite("net", vec![inner, leaf("c", 25.0)], Some("(a + b)/2")).unwrap();
        let fed = LocalFederation::new(outer);
        assert_eq!(
            fed.read_sequential().unwrap(),
            24.0,
            "the paper's Fig. 3 numbers"
        );
    }

    #[test]
    fn unbound_expression_rejected_at_build() {
        let err = match LocalNode::composite("x", vec![leaf("a", 1.0)], Some("(a + b)/2")) {
            Err(e) => e,
            Ok(_) => panic!("unbound expression must be rejected"),
        };
        assert!(err.contains('b'));
    }

    #[test]
    fn empty_composite_fails_read() {
        let node = LocalNode::composite("empty", vec![], None).unwrap();
        let fed = LocalFederation::new(node);
        assert!(matches!(
            fed.read_sequential(),
            Err(LocalReadError::EmptyComposite { .. })
        ));
    }

    #[test]
    fn probe_errors_carry_sensor_name() {
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("x"),
            Signal::Constant(20.0),
            SimRng::new(1),
        )
        .with_battery(Battery::new(1.0, 100.0, 0.0));
        let tree =
            LocalNode::composite("c", vec![LocalNode::sensor("dying", Box::new(probe))], None)
                .unwrap();
        let fed = LocalFederation::new(tree);
        match fed.read_sequential().unwrap_err() {
            LocalReadError::Probe { sensor, .. } => assert_eq!(sensor, "dying"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_probe_panic_reaches_the_reader_and_poisons_the_probe() {
        struct Panics(Teds);
        impl SensorProbe for Panics {
            fn sample(&mut self, _: SimTime) -> Result<Measurement, ProbeError> {
                panic!("probe fault")
            }
            fn teds(&self) -> &Teds {
                &self.0
            }
        }
        let bad = Box::new(Panics(Teds::sunspot_temperature("x")));
        let tree = LocalNode::composite(
            "c",
            vec![leaf("ok", 1.0), LocalNode::sensor("bad", bad)],
            None,
        )
        .unwrap();
        let fed = LocalFederation::new(tree);
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fed.read_parallel(2)));
        assert!(read.is_err(), "a worker's panic is re-raised");
        match fed.read_sequential().unwrap_err() {
            LocalReadError::Probe { sensor, error } => {
                assert_eq!(sensor, "bad");
                assert!(error.contains("poisoned"), "{error}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clock_advances_past_min_sample_interval() {
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("x"),
            Signal::Constant(20.0),
            SimRng::new(1),
        );
        let tree = LocalNode::sensor("s", Box::new(probe));
        let fed = LocalFederation::new(tree);
        for _ in 0..100 {
            assert!(
                fed.read_sequential().is_ok(),
                "ticks must outpace the 10ms minimum"
            );
        }
    }

    #[test]
    fn wide_tree_parallel_read() {
        let children: Vec<Arc<LocalNode>> =
            (0..64).map(|i| leaf(&format!("s{i}"), i as f64)).collect();
        let tree = LocalNode::composite("wide", children, None).unwrap();
        let fed = LocalFederation::new(tree);
        assert_eq!(fed.read_parallel(4).unwrap(), 31.5);
    }
}
