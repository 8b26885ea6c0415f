//! Every committed harness artefact, read back through the one JSON reader
//! and held to its report's frame: `schema_version`, `passed == true`, the
//! keys its module declares beside its writer. Each runner already exits
//! non-zero when its run fails, so what can still go wrong is a stale or
//! hand-edited file, or a report committed without a check; regenerate
//! one with `harness <verb>`.

use std::path::Path;

use std::collections::BTreeSet;

use sensorcer_bench::{chaos, obs, perfetto, storm, trace, verify};
use sensorcer_trace::json::Json;
use sensorcer_trace::EXPORT_SCHEMA_VERSION;

/// `(file at the repo root, the keys its report declares)`.
const ARTIFACTS: &[(&str, &[&str])] = &[
    ("CHAOS_1.json", chaos::REQUIRED_KEYS),
    ("TRACE_1.json", trace::REQUIRED_KEYS),
    ("VERIFY_1.json", verify::REQUIRED_KEYS),
    ("OBS_1.json", obs::REQUIRED_KEYS),
    ("STORM_1.json", storm::REQUIRED_KEYS),
    ("PERFETTO_1.json", perfetto::REQUIRED_KEYS),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> Json {
    let path = root().join(name);
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
/// `schema_version` equal to [`EXPORT_SCHEMA_VERSION`], `passed: true`
/// and every required path. One message per problem.
fn check_report(doc: &Json, required: &[&str]) -> Vec<String> {
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
    for &(name, required) in ARTIFACTS {
        let problems = check_report(&read(name), required);
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
}

/// Every `*.json` report at the repo root has a row in [`ARTIFACTS`],
/// and every row names a file that is there: a stale report left behind
/// or a new one committed without a check fails here. `BENCHMARK.json`
/// (the benchmark's contract) is not a report, and the files
/// `.gitignore` keeps out of the tree (`harness trace`'s `*.spans.json`,
/// `scripts/ci.sh`'s `*_ci*` copies) are never committed.
#[test]
fn every_report_at_the_root_is_checked() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(root())
        .expect("repo root lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| {
            n.ends_with(".json")
                && n != "BENCHMARK.json"
                && !n.ends_with(".spans.json")
                && !n.contains("_ci")
        })
        .collect();
    let checked: BTreeSet<String> = ARTIFACTS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(on_disk, checked);
}

/// The check is not vacuous: a copy with `passed` flipped to `false` and
/// a copy missing any one required key (at any depth) are each refused —
/// after a round trip through the writer and the reader, as a file on
/// disk would be.
#[test]
fn a_failing_or_incomplete_copy_is_refused() {
    let reread = |doc: &Json| Json::parse(doc.render().as_bytes()).expect("reads back");
    for &(name, required) in ARTIFACTS {
        let doc = read(name);
        let mut copies = vec![(
            "passed = false".to_string(),
            edited(&doc, &["passed"], Some(&false.into())),
        )];
        for key in required.iter().chain(&["schema_version", "passed"]) {
            let path: Vec<&str> = key.split('.').collect();
            copies.push((format!("no \"{key}\""), edited(&doc, &path, None)));
        }
        for (what, copy) in copies {
            assert!(
                !check_report(&reread(&copy), required).is_empty(),
                "{name} with {what} was accepted"
            );
        }
    }
}
