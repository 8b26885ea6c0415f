//! Property tests for the exertion runtime: context algebra, wire-size
//! accounting, and exertion-tree structure. Driven by the deterministic
//! harness in `sensorcer_sim::check`.

use std::collections::BTreeMap;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::Value;
use sensorcer_sim::check::{run_cases, Gen};
use sensorcer_sim::prelude::{Env, HostKind, SimDuration};

fn gen_value(g: &mut Gen) -> Value {
    match g.u64_in(0, 5) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int(g.i64()),
        3 => Value::Float(g.f64_in(-1e9, 1e9)),
        _ => Value::Str(g.ascii_string(24).into()),
    }
}

fn gen_path(g: &mut Gen) -> String {
    let segs = g.vec_of(1, 3, |g| {
        let s = g.alpha_string(1, 8);
        s.to_ascii_lowercase()
    });
    segs.join("/")
}

fn gen_entries(g: &mut Gen, max: usize) -> BTreeMap<String, Value> {
    let n = g.usize_in(0, max + 1);
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = gen_path(g);
        let v = gen_value(g);
        out.insert(k, v);
    }
    out
}

/// merge_under followed by subcontext is the identity on the merged
/// entries.
#[test]
fn merge_then_subcontext_round_trips() {
    run_cases("merge_then_subcontext_round_trips", 96, |g| {
        let entries = gen_entries(g, 16);
        let prefix = g.alpha_string(1, 13);
        let mut child = Context::new();
        for (k, v) in &entries {
            child.put(k.clone(), v.clone());
        }
        let mut parent = Context::new();
        parent.merge_under(&prefix, &child);
        let back = parent.subcontext(&prefix);
        assert_eq!(back, child);
    });
}

/// Wire size is positive and monotone under insertion.
#[test]
fn wire_size_laws() {
    run_cases("wire_size_laws", 96, |g| {
        let mut entries = gen_entries(g, 16);
        if entries.is_empty() {
            entries.insert("k".into(), Value::Int(1));
        }
        let mut ctx = Context::new();
        let mut prev = ctx.wire_size();
        for (k, v) in &entries {
            ctx.put(k.clone(), v.clone());
            let now = ctx.wire_size();
            assert!(now >= prev, "inserting must not shrink the context");
            prev = now;
        }
        assert!(ctx.wire_size() > 0);
    });
}

/// task_count and depth behave structurally for arbitrary balanced
/// job trees.
#[test]
fn exertion_tree_structure() {
    run_cases("exertion_tree_structure", 24, |g| {
        let depth = g.usize_in(0, 4);
        let fanout = g.usize_in(1, 4);
        fn build(depth: usize, fanout: usize) -> Exertion {
            if depth == 0 {
                Task::new("leaf", Signature::new("I", "op"), Context::new()).into()
            } else {
                let mut job = Job::new("node", ControlStrategy::parallel());
                for _ in 0..fanout {
                    job = job.with(build(depth - 1, fanout));
                }
                job.into()
            }
        }
        let tree = build(depth, fanout);
        assert_eq!(tree.task_count(), fanout.pow(depth as u32));
        assert_eq!(tree.depth(), depth + 1);
        assert!(tree.wire_size() > 0);
    });
}

/// Context paths iterate sorted and contain exactly what was put.
#[test]
fn context_paths_sorted_and_complete() {
    run_cases("context_paths_sorted_and_complete", 96, |g| {
        let entries = gen_entries(g, 24);
        let mut ctx = Context::new();
        for (k, v) in &entries {
            ctx.put(k.clone(), v.clone());
        }
        let paths: Vec<&str> = ctx.paths().collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(&paths, &sorted, "paths iterate in order");
        assert_eq!(paths.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(ctx.get(k), Some(v));
        }
    });
}

/// Tuple-space conservation: every written entry is exactly one of
/// pending, taken (in results or consumed) or expired — regardless of
/// the interleaving of writes, takes and time.
#[test]
fn space_conserves_entries() {
    run_cases("space_conserves_entries", 48, |g| {
        let ops = g.vec_of(1, 40, |g| g.u64_in(0, 4) as u8);
        let ttl_s = g.u64_in(2, 20);
        let mut env = Env::with_seed(42);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "space");
        let mut written = 0u64;
        let mut taken = 0u64;
        for op in ops {
            match op {
                0 | 1 => {
                    let task = Task::new(
                        "t",
                        Signature::new("I", "op"),
                        Context::new().with("x", written as i64),
                    );
                    space
                        .write_with_ttl(&mut env, h, task, SimDuration::from_secs(ttl_s))
                        .unwrap();
                    written += 1;
                }
                2 => {
                    if space.take_matching(&mut env, h, "I").unwrap().is_some() {
                        taken += 1;
                    }
                }
                _ => env.run_for(SimDuration::from_secs(1)),
            }
        }
        env.with_service(space.service, |_e, sp: &mut ExertionSpace| {
            assert_eq!(sp.writes_total(), written);
            assert_eq!(sp.takes_total(), taken);
            assert_eq!(
                sp.pending_count() as u64 + taken + sp.expired_total(),
                written,
                "pending + taken + expired must equal writes"
            );
        })
        .unwrap();
    });
}

/// Signature display round-trips the interface/selector split.
#[test]
fn signature_display() {
    run_cases("signature_display", 96, |g| {
        let iface = g.alpha_string(1, 16);
        let sel = g.alpha_string(1, 16).to_ascii_lowercase();
        let pin = if g.bool() {
            Some(g.alpha_string(1, 16))
        } else {
            None
        };
        let mut sig = Signature::new(iface.clone(), sel.clone());
        if let Some(p) = &pin {
            sig = sig.on(p.clone());
        }
        let shown = sig.to_string();
        let expected_prefix = format!("{}#{}", iface, sel);
        assert!(shown.starts_with(&expected_prefix));
        assert_eq!(shown.contains('@'), pin.is_some());
    });
}
