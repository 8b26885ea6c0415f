//! Every committed harness artefact, read back through the one JSON reader
//! and held to its report's frame: `schema_version`, `passed == true`, the
//! keys its module declares beside its writer and the values a committed
//! copy must hold. Each runner already exits non-zero when its run fails,
//! so what can still go wrong is a stale, scaled-down or hand-edited file;
//! regenerate one with `harness <verb>`.

use std::path::Path;

use sensorcer_bench::{chaos, obs, perfetto, perfetto_scale, storm, trace, verify};
use sensorcer_trace::json::Json;
use sensorcer_trace::EXPORT_SCHEMA_VERSION;

/// `(key, value)` pairs a committed copy must hold.
type Pinned = &'static [(&'static str, u64)];

/// `(file at the repo root, the keys its report declares, its pinned values)`.
const ARTIFACTS: &[(&str, &[&str], Pinned)] = &[
    ("CHAOS_1.json", chaos::REQUIRED_KEYS, &[]),
    ("TRACE_1.json", trace::REQUIRED_KEYS, &[]),
    ("VERIFY_1.json", verify::REQUIRED_KEYS, &[]),
    ("OBS_1.json", obs::REQUIRED_KEYS, &[]),
    ("STORM_1.json", storm::REQUIRED_KEYS, &[]),
    ("PERFETTO_1.json", perfetto::REQUIRED_KEYS, &[]),
    // The committed summary is the full-scale run, not a reduced pass.
    (
        "PERFETTO_2.json",
        perfetto_scale::REQUIRED_KEYS,
        &[("motes", perfetto_scale::DEFAULT_MOTES as u64)],
    ),
];

fn read(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Whether the dotted `path` is present in `v`. A segment names an
/// object's member; an array must be non-empty and every element must
/// hold the rest of the path.
fn has(v: &Json, path: &[&str]) -> bool {
    match (v, path) {
        (_, []) => true,
        (Json::Arr(xs), _) => !xs.is_empty() && xs.iter().all(|x| has(x, path)),
        (_, [key, rest @ ..]) => v.get(key).is_some_and(|x| has(x, rest)),
    }
}

/// Hold a report read back from disk to the frame `Json::report` writes:
/// `schema_version` equal to [`EXPORT_SCHEMA_VERSION`], `passed: true`,
/// every required path and every pinned value. One message per problem.
fn check_report(doc: &Json, required: &[&str], pinned: Pinned) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema_version").and_then(Json::as_u64) != Some(EXPORT_SCHEMA_VERSION.into()) {
        problems.push(format!("schema_version is not {EXPORT_SCHEMA_VERSION}"));
    }
    if doc.get("passed") != Some(&Json::Bool(true)) {
        problems.push("passed is not true".to_string());
    }
    for key in required {
        if !has(doc, &key.split('.').collect::<Vec<_>>()) {
            problems.push(format!("missing required key \"{key}\""));
        }
    }
    for &(key, value) in pinned {
        if doc.get(key).and_then(Json::as_u64) != Some(value) {
            problems.push(format!("\"{key}\" is not {value}"));
        }
    }
    problems
}

/// `doc` with the member at the dotted `path` replaced by `value`, or
/// removed when `value` is `None`. Through an array only the first element
/// is edited, so a check that looks at one element alone is caught.
fn edited(doc: &Json, path: &[&str], value: Option<&Json>) -> Json {
    match (doc, path) {
        (Json::Arr(xs), _) => {
            let mut xs = xs.clone();
            if let Some(first) = xs.first_mut() {
                *first = edited(first, path, value);
            }
            Json::Arr(xs)
        }
        (Json::Obj(members), [key, rest @ ..]) => Json::Obj(
            members
                .iter()
                .filter_map(|(k, v)| match (k == key, rest, value) {
                    (false, ..) => Some((k.clone(), v.clone())),
                    (true, [], None) => None,
                    (true, [], Some(new)) => Some((k.clone(), new.clone())),
                    (true, ..) => Some((k.clone(), edited(v, rest, value))),
                })
                .collect(),
        ),
        _ => doc.clone(),
    }
}

#[test]
fn every_committed_artifact_reads_back_passing_and_whole() {
    for &(name, required, pinned) in ARTIFACTS {
        let problems = check_report(&read(name), required, pinned);
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
}

/// The check is not vacuous: a copy with `passed` flipped to `false`, a
/// copy missing any one required key (at any depth), and a copy with a
/// pinned value changed are each refused — after a round trip through the
/// writer and the reader, as a file on disk would be.
#[test]
fn a_failing_or_incomplete_copy_is_refused() {
    let reread = |doc: &Json| Json::parse(doc.render().as_bytes()).expect("reads back");
    for &(name, required, pinned) in ARTIFACTS {
        let doc = read(name);
        let mut copies = vec![(
            "passed = false".to_string(),
            edited(&doc, &["passed"], Some(&false.into())),
        )];
        for key in required.iter().chain(&["schema_version", "passed"]) {
            let path: Vec<&str> = key.split('.').collect();
            copies.push((format!("no \"{key}\""), edited(&doc, &path, None)));
        }
        for &(key, value) in pinned {
            let scaled_down = Json::from(value / 10);
            let copy = edited(&doc, &[key], Some(&scaled_down));
            copies.push((format!("{key} = {}", value / 10), copy));
        }
        for (what, copy) in copies {
            assert!(
                !check_report(&reread(&copy), required, pinned).is_empty(),
                "{name} with {what} was accepted"
            );
        }
    }
}
