//! B6 — runtime compute-expressions (§V.A's "Sensor Computation").
//!
//! The Groovy substitute must be cheap enough to evaluate per read. We
//! measure (host CPU time) compile-and-bind vs. `bind_in` on a cached
//! [`Program`] and a reused frame across expression sizes, and (virtual
//! time) the cost the expression machinery adds to a composite read as
//! composition depth grows.

use std::time::Instant;

use sensorcer_expr::{Program, SlotFrame, Value};
use sensorcer_sim::prelude::SimDuration;

use crate::helpers::sensor_world;
use crate::table::{fmt_us, Table};

/// Benchmark expressions of increasing size. Returns (source, var count).
pub fn expression_suite() -> Vec<(&'static str, String, usize)> {
    let paper = "(a + b + c)/3".to_string();
    let medium = "clamp((a + b + c + d)/4, min(a, b), max(c, d)) * 1.8 + 32.0".to_string();
    // A 26-variable reduction with per-term scaling.
    let wide = {
        let terms: Vec<String> = (0..26)
            .map(|i| format!("{} * {:.2}", crate::var(i), 1.0 + i as f64 * 0.01))
            .collect();
        format!("({}) / 26", terms.join(" + "))
    };
    vec![
        ("paper-avg3", paper, 3),
        ("calibrated-4", medium, 4),
        ("weighted-26", wide, 26),
    ]
}

/// Host-time costs in nanoseconds: (compile+bind, `bind_in` on a cached
/// program and a reused frame — the CSP's per-read pattern).
pub fn host_costs(source: &str, vars: usize, iters: u32) -> (f64, f64) {
    let names: Vec<String> = (0..vars).map(crate::var).collect();
    let bindings: Vec<(&str, Value)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), Value::Float(20.0 + i as f64)))
        .collect();

    let t0 = Instant::now();
    for _ in 0..iters {
        let p = Program::compile(source).expect("compiles");
        p.bind(&bindings).expect("evals");
    }
    let compile_bind = t0.elapsed().as_nanos() as f64 / iters as f64;

    let p = Program::compile(source).expect("compiles");
    let mut frame = SlotFrame::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        p.bind_in(&bindings, &mut frame).expect("evals");
    }
    let bind_only = t0.elapsed().as_nanos() as f64 / iters as f64;
    (compile_bind, bind_only)
}

pub fn host_table() -> Table {
    let mut t = Table::new(
        "B6a: expression cost per evaluation (host CPU time)",
        &[
            "expression",
            "ast nodes",
            "compile+bind",
            "bind_in (cached program)",
        ],
    );
    for (name, source, vars) in expression_suite() {
        let nodes = sensorcer_expr::parse(&source)
            .expect("parses")
            .stmts
            .iter()
            .map(|s| match s {
                sensorcer_expr::Stmt::Assign(_, e) | sensorcer_expr::Stmt::Expr(e) => {
                    e.node_count()
                }
            })
            .sum::<usize>();
        let (ce, eo) = host_costs(&source, vars, 2_000);
        t.row(&[
            name.to_string(),
            nodes.to_string(),
            format!("{:.0}ns", ce),
            format!("{:.0}ns", eo),
        ]);
    }
    t.note("the CSP caches the compiled Program, paying the bind_in column per read");
    t
}

/// Virtual read latency of a chain of `depth` single-child composites
/// (each with an expression) over one sensor.
pub fn depth_latency(depth: usize, seed: u64) -> SimDuration {
    let mut w = sensor_world(1, seed);
    let mut below = "Sensor-000".to_string();
    for level in 0..depth {
        let name = format!("L{level}");
        let host = w.env.add_host(
            format!("{name}-host"),
            sensorcer_sim::topology::HostKind::Server,
        );
        let mut cfg = sensorcer_core::csp::CspConfig::new(host, name.clone(), w.lus);
        cfg.lease = SimDuration::from_secs(36_000);
        cfg.children = vec![below.clone()];
        cfg.expression = Some("a * 1.0".into());
        sensorcer_core::csp::deploy_csp(&mut w.env, cfg).expect("chain level");
        below = name;
    }
    let (v, dt) = w.timed_read(&below);
    v.expect("chain read");
    dt
}

/// Read latency vs. composition depth.
pub fn depth_table(seed: u64) -> Table {
    let mut t = Table::new(
        "B6b: composite read latency vs. nesting depth (virtual time)",
        &["depth", "read latency"],
    );
    for depth in [1usize, 2, 4, 8] {
        t.row(&[
            depth.to_string(),
            fmt_us(depth_latency(depth, seed).as_micros_f64()),
        ]);
    }
    t.note("each nesting level adds one LUS bind + one provider hop — linear in depth");
    t.note("the constant floor is the radio hop to the mote, shared by every depth");
    t
}

pub fn run(seed: u64) -> String {
    format!("{}\n{}", host_table().render(), depth_table(seed).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_program_is_cheaper_than_recompiling() {
        let (cb, bo) = host_costs("(a + b + c)/3", 3, 3_000);
        assert!(bo < cb, "bind_in {bo}ns should beat compile+bind {cb}ns");
    }

    #[test]
    fn wider_expressions_cost_more() {
        let suite = expression_suite();
        let (_, small_src, small_vars) = &suite[0];
        let (_, wide_src, wide_vars) = &suite[2];
        let (_, small) = host_costs(small_src, *small_vars, 2_000);
        let (_, wide) = host_costs(wide_src, *wide_vars, 2_000);
        assert!(wide > small, "26 vars {wide}ns vs 3 vars {small}ns");
    }

    #[test]
    fn depth_latency_grows_linearly() {
        let d1 = depth_latency(1, 11);
        let d4 = depth_latency(4, 11);
        let d8 = depth_latency(8, 11);
        // Each extra level costs one LAN bind + hop (~1-3 ms virtual) on
        // top of the shared radio floor — check additive, ordered growth.
        assert!(d4 > d1 && d8 > d4, "{d1} {d4} {d8}");
        let per_level = (d8.as_nanos() - d1.as_nanos()) as f64 / 7.0;
        assert!(
            (200_000.0..10_000_000.0).contains(&per_level),
            "per-level cost {per_level}ns out of expected band"
        );
    }

    #[test]
    fn suite_expressions_all_evaluate() {
        for (name, src, vars) in expression_suite() {
            let p = Program::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let v = p
                .eval_with((0..vars).map(|i| (crate::var(i), 20.0 + i as f64)))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(v.as_f64().is_some(), "{name} must be numeric");
        }
    }
}
