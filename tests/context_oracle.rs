//! Differential oracle for the service context, and the sharing it rides
//! on: `Context` is one flat vector searched length-first and `Value`
//! shares its text and lists, so everything a caller can observe is checked
//! here against a plain `BTreeMap<String, Value>` model over generated
//! operation sequences — same answers, lexical iteration, equality that
//! does not remember how a context was built, and a wire size that is the
//! model's sum. The modelled wire, and with it every committed artifact,
//! reads `wire_size`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::context::value_wire_size;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::{Text, Value};
use sensorcer_suite::registry::attributes::Entry;
use sensorcer_suite::registry::ids::{interfaces, SvcUuid};
use sensorcer_suite::registry::item::ServiceItem;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::LookupService;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

type Model = BTreeMap<String, Value>;

// Paths of equal length that differ only in their last bytes, paths that
// are prefixes of one another, the conventional ones, and the empty path:
// what a length-first search has to tell apart.
const PATHS: [&str; 14] = [
    paths::SENSOR_VALUE,
    paths::RESULT,
    paths::SENSOR_UNIT,
    paths::SENSOR_AT,
    paths::SENSOR_QUALITY,
    "sensor/valuf",
    "sensor/valud",
    "tensor/value",
    "a",
    "b",
    "a/b",
    "a/b/c",
    "a/c",
    "",
];
const PREFIXES: [&str; 4] = ["a", "a/b", "read Neem-Sensor", "sensor"];

fn gen_path(g: &mut Gen) -> String {
    if g.chance(0.8) {
        g.pick(&PATHS).to_string()
    } else {
        format!("{}/{}", g.pick(&PREFIXES), g.alpha_string(1, 6))
    }
}

fn gen_value(g: &mut Gen) -> Value {
    match g.u64_in(0, 7) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int(g.i64_in(-5, 5)),
        3 => Value::Float(g.u64_in(0, 100) as f64 / 4.0),
        4 => Value::literal("good"),
        5 => Value::Str(g.ascii_string(12).into()),
        _ => Value::List(g.vec_of(0, 4, |g| Value::Int(g.i64_in(0, 9))).into()),
    }
}

fn gen_context(g: &mut Gen, max: usize) -> (Context, Model) {
    let mut ctx = Context::new();
    let mut model = Model::new();
    for _ in 0..g.usize_in(0, max + 1) {
        let (k, v) = (gen_path(g), gen_value(g));
        ctx.put(k.clone(), v.clone());
        model.insert(k, v);
    }
    (ctx, model)
}

fn model_wire_size(model: &Model) -> usize {
    4 + model
        .iter()
        .map(|(k, v)| 4 + k.len() + value_wire_size(v))
        .sum::<usize>()
}

fn assert_same(ctx: &Context, model: &Model) {
    assert_eq!(ctx.len(), model.len(), "len");
    assert_eq!(ctx.is_empty(), model.is_empty(), "is_empty");
    for path in PATHS.iter().copied().chain(["never/put", "sensor/valu"]) {
        let want = model.get(path);
        assert_eq!(ctx.get(path), want, "get({path:?})");
        assert_eq!(ctx.contains(path), want.is_some(), "contains({path:?})");
        assert_eq!(
            ctx.get_f64(path),
            want.and_then(Value::as_f64),
            "get_f64({path:?})"
        );
        let text = match want {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        assert_eq!(ctx.get_str(path), text, "get_str({path:?})");
    }
    // Generated paths are outside the fixed alphabet: reach them too.
    for (k, v) in model {
        assert_eq!(ctx.get(k), Some(v), "get({k:?})");
    }
    let lexical: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (&**k, v)).collect();
    assert_eq!(ctx.iter().collect::<Vec<_>>(), lexical, "iter()");
    assert_eq!(
        ctx.paths().collect::<Vec<_>>(),
        model.keys().map(|k| &**k).collect::<Vec<_>>(),
        "paths()"
    );
    assert_eq!(ctx.wire_size(), model_wire_size(model), "wire_size()");
}

/// The same entries put in any other order are the same context.
fn assert_order_blind(g: &mut Gen, ctx: &Context, model: &Model) {
    let mut entries: Vec<(&String, &Value)> = model.iter().collect();
    for i in (1..entries.len()).rev() {
        entries.swap(i, g.usize_in(0, i + 1));
    }
    let shuffled: Context = entries
        .into_iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(&shuffled, ctx, "== must not depend on insertion order");
}

/// One generated operation, applied to both sides.
fn step(g: &mut Gen, ctx: &mut Context, model: &mut Model) {
    match g.u64_in(0, 12) {
        0..=4 => {
            let (k, v) = (gen_path(g), gen_value(g));
            ctx.put(k.clone(), v.clone());
            model.insert(k, v);
        }
        5..=6 => {
            let k = gen_path(g);
            assert_eq!(ctx.remove(&k), model.remove(&k), "remove({k:?})");
        }
        7..=8 => {
            let prefix = *g.pick(&PREFIXES);
            let (other, other_model) = gen_context(g, 6);
            ctx.merge_under(prefix, &other);
            for (k, v) in other_model {
                model.insert(format!("{prefix}/{k}"), v);
            }
        }
        9 => {
            let prefix = *g.pick(&PREFIXES);
            let lead = format!("{prefix}/");
            let want: Model = model
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix(&lead)?.to_string(), v.clone())))
                .collect();
            let sub = ctx.subcontext(prefix);
            assert_same(&sub, &want);
            assert_order_blind(g, &sub, &want);
        }
        _ => {
            // A clone is a context of its own: editing it leaves the
            // original, and the values the two share, as they were.
            let mut copy = ctx.clone();
            let mut copy_model = model.clone();
            for _ in 0..g.usize_in(1, 4) {
                let (k, v) = (gen_path(g), gen_value(g));
                copy.put(k.clone(), v.clone());
                copy_model.insert(k, v);
                let k = gen_path(g);
                assert_eq!(copy.remove(&k), copy_model.remove(&k));
            }
            assert_same(&copy, &copy_model);
            assert_same(ctx, model);
        }
    }
}

#[test]
fn the_flat_context_matches_the_ordered_map_model() {
    run_cases("the_flat_context_matches_the_ordered_map_model", 128, |g| {
        let mut ctx = Context::new();
        let mut model = Model::new();
        assert_same(&ctx, &model);
        for _ in 0..g.usize_in(10, 80) {
            step(g, &mut ctx, &mut model);
            assert_same(&ctx, &model);
        }
        assert_order_blind(g, &ctx, &model);
    });
}

/// A composite re-arms its one in-flight request with `clear` before every
/// child hop: whatever the context held, what is left is a fresh context in
/// everything but the room it keeps — empty, four bytes on the wire, equal
/// to `Context::new()`, and as good a start for any edit sequence.
#[test]
fn a_cleared_context_is_a_fresh_one() {
    run_cases("a_cleared_context_is_a_fresh_one", 128, |g| {
        let (mut ctx, mut model) = gen_context(g, 12);
        for _ in 0..g.usize_in(0, 20) {
            step(g, &mut ctx, &mut model);
        }
        ctx.clear();
        assert_eq!(ctx.len(), 0);
        assert_eq!(ctx.wire_size(), 4);
        for path in PATHS.iter().copied().chain(model.keys().map(|k| &**k)) {
            assert!(!ctx.contains(path), "{path:?} survived clear()");
            assert_eq!(ctx.get(path), None);
        }
        assert_eq!(ctx, Context::new());
        model.clear();
        assert_same(&ctx, &model);
        for _ in 0..g.usize_in(10, 60) {
            step(g, &mut ctx, &mut model);
            assert_same(&ctx, &model);
        }
        assert_order_blind(g, &ctx, &model);
    });
}

/// `wire_size` is a sum the context keeps, not a walk: every way an entry
/// can change size or leave has to move it — replaced in place by a larger
/// and by a smaller value, overwritten through `merge_under`, removed, and
/// removed when it was never there.
#[test]
fn the_kept_wire_size_follows_replacement_in_place_and_removal() {
    let mut ctx = Context::new().with(paths::SENSOR_UNIT, Value::literal("°C"));
    let mut model = Model::from([(paths::SENSOR_UNIT.to_string(), Value::literal("°C"))]);
    // The same path four times over: 9, 5 + 18, 1 and 5 + 3 × 9 bytes.
    let sizes: [(Value, usize); 4] = [
        (Value::Int(1), 9),
        ("a much longer text".into(), 23),
        (Value::Null, 1),
        (vec![1i64, 2, 3].into(), 32),
    ];
    let without = ctx.wire_size() + 4 + "a/b".len();
    for (v, bytes) in sizes {
        ctx.put("a/b", v.clone());
        model.insert("a/b".into(), v);
        assert_same(&ctx, &model);
        assert_eq!(ctx.wire_size(), without + bytes);
    }

    let other = Context::new().with("b", true).with("c", 2.5);
    ctx.merge_under("a", &other);
    model.insert("a/b".into(), Value::Bool(true));
    model.insert("a/c".into(), Value::Float(2.5));
    assert_same(&ctx, &model);

    assert_eq!(ctx.remove("never/put"), None);
    assert_same(&ctx, &model);
    for k in ["a/b", paths::SENSOR_UNIT, "a/c"] {
        assert_eq!(ctx.remove(k), model.remove(k));
        assert_same(&ctx, &model);
    }
    assert_eq!(ctx.wire_size(), Context::new().wire_size());
}

/// A job context folding in a hundred replies: the size no federated read
/// builds, checked at every step of getting there and back.
#[test]
fn a_context_of_six_hundred_entries_still_matches_the_model() {
    let mut g = Gen::new(15);
    let mut job = Context::new();
    let mut model = Model::new();
    for child in 0..100u32 {
        let reply = Context::new()
            .with(paths::SENSOR_VALUE, f64::from(child))
            .with(paths::RESULT, f64::from(child))
            .with(paths::SENSOR_UNIT, Value::literal("°C"))
            .with(paths::SENSOR_AT, 1e9)
            .with(paths::SENSOR_QUALITY, Value::literal("good"))
            .with("composite/visited", Value::List(vec!["Root".into()].into()));
        // Three-digit and one-digit names: prefixes of different lengths.
        let name = format!("read Mote-{}", child * 7 % 100);
        job.merge_under(&name, &reply);
        for (k, v) in reply.iter() {
            model.insert(format!("{name}/{k}"), v.clone());
        }
    }
    assert_eq!(job.len(), 600);
    assert_same(&job, &model);
    assert_order_blind(&mut g, &job, &model);

    let sub = job.subcontext("read Mote-7");
    assert_eq!(sub.len(), 6);
    assert_eq!(sub.get_f64(paths::SENSOR_VALUE), Some(1.0));

    for child in (0..100u32).step_by(2) {
        let path = format!("read Mote-{child}/{}", paths::SENSOR_AT);
        assert_eq!(job.remove(&path), model.remove(&path));
    }
    assert_eq!(job.len(), 550);
    assert_same(&job, &model);
}

#[test]
fn cloning_a_value_shares_its_text_and_its_list() {
    let text = Value::Str("Neem-Sensor".into());
    let list = Value::List(vec![text.clone(), Value::literal("°C")].into());
    let (Value::Str(a), Value::Str(b)) = (&text, &text.clone()) else {
        unreachable!()
    };
    assert!(matches!(a, Text::Shared(_)));
    assert!(std::ptr::eq(a.as_str(), b.as_str()), "one allocation");
    let (Value::List(xs), Value::List(ys)) = (&list, &list.clone()) else {
        unreachable!()
    };
    assert!(Arc::ptr_eq(xs, ys), "one allocation");
    // The element inside the list is the same text again.
    let Value::Str(inner) = &xs[0] else {
        unreachable!()
    };
    assert!(std::ptr::eq(inner.as_str(), a.as_str()));
    // A literal borrows the program's own bytes, and equals built text.
    let Value::Str(unit) = &xs[1] else {
        unreachable!()
    };
    assert!(matches!(unit, Text::Static(_)));
    assert_eq!(Value::literal("°C"), Value::Str(String::from("°C").into()));

    // Sharing is invisible to a context: a clone edits only itself.
    let ctx = Context::new().with("k", list.clone());
    let mut copy = ctx.clone();
    copy.put("k", Value::List(vec![].into()));
    assert_eq!(ctx.get("k"), Some(&list));
}

struct World {
    env: Env,
    client: HostId,
    server: HostId,
    lus: sensorcer_suite::registry::lus::LusHandle,
    accessor: ServiceAccessor,
}

fn world() -> World {
    let mut env = Env::with_seed(1);
    let server = env.add_host("server", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        server,
        "LUS",
        "public",
        LeasePolicy::default(),
        SimDuration::from_millis(500),
    );
    World {
        env,
        client,
        server,
        lus,
        accessor: ServiceAccessor::new(vec![lus]),
    }
}

/// A sensor stand-in that answers `getValue` and keeps the breadcrumb each
/// request arrived with.
fn deploy_recorder(w: &mut World, name: &str, seen: &Rc<RefCell<Vec<Value>>>) {
    let seen = Rc::clone(seen);
    let tasker = Tasker::new(name, interfaces::SENSOR_DATA_ACCESSOR).on(
        selectors::GET_VALUE,
        move |_, ctx| {
            seen.borrow_mut()
                .extend(ctx.get("composite/visited").cloned());
            ctx.put(paths::SENSOR_VALUE, 20.0);
            Ok(())
        },
    );
    let svc = w.env.deploy(w.server, name, ServicerBox::new(tasker));
    let item = ServiceItem::new(
        SvcUuid::NIL,
        w.server,
        svc,
        vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
        vec![Entry::Name(name.into())],
    );
    w.lus.register(&mut w.env, w.server, item, None).unwrap();
}

#[test]
fn every_child_request_carries_its_parents_breadcrumb_by_reference() {
    let mut w = world();
    let seen = Rc::new(RefCell::new(Vec::new()));
    for name in ["X", "Y", "Z"] {
        deploy_recorder(&mut w, name, &seen);
    }
    let mut inner = CspConfig::new(w.server, "Inner", w.lus);
    inner.children = vec!["X".into(), "Y".into()];
    deploy_csp(&mut w.env, inner).unwrap();
    let mut outer = CspConfig::new(w.server, "Outer", w.lus);
    outer.children = vec!["Inner".into(), "Z".into()];
    deploy_csp(&mut w.env, outer).unwrap();

    for _ in 0..2 {
        seen.borrow_mut().clear();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "Outer").unwrap();
        assert_eq!(r.value, 20.0);
        let seen = seen.borrow();
        let [Value::List(x), Value::List(y), Value::List(z)] = seen.as_slice() else {
            panic!("three leaf reads, each with a breadcrumb: {seen:?}")
        };
        assert!(Arc::ptr_eq(x, y), "Inner builds one list for both children");
        assert_eq!(**x, [Value::from("Outer"), Value::from("Inner")]);
        assert_eq!(**z, [Value::from("Outer")]);
    }
}

#[test]
fn the_breadcrumb_alone_stops_a_composite_that_is_already_on_it() {
    let mut w = world();
    let seen = Rc::new(RefCell::new(Vec::new()));
    deploy_recorder(&mut w, "X", &seen);
    let mut cfg = CspConfig::new(w.server, "Loop", w.lus);
    cfg.children = vec!["X".into()];
    let csp = deploy_csp(&mut w.env, cfg).unwrap();
    let request = |visited: Vec<Value>| {
        Task::new(
            "read Loop",
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE),
            Context::new().with("composite/visited", Value::List(visited.into())),
        )
    };
    // No call cycle here, so the re-entrancy detector is not in play.
    let looped = request(vec!["Root".into(), "Loop".into()]);
    let done = exert_on(&mut w.env, w.client, csp.service, looped.into(), None).unwrap();
    assert!(
        matches!(done.status(), ExertionStatus::Failed(e) if e.contains("cycle detected at 'Loop'")),
        "{:?}",
        done.status()
    );
    assert!(seen.borrow().is_empty(), "no child was asked");

    let clean = request(vec!["Root".into()]);
    let done = exert_on(&mut w.env, w.client, csp.service, clean.into(), None).unwrap();
    assert!(done.status().is_done(), "{:?}", done.status());
    assert_eq!(
        *seen.borrow(),
        [Value::List(vec!["Root".into(), "Loop".into()].into())]
    );
}
