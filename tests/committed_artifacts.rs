//! Every committed harness report, one per row of [`LEGS`]: regenerated
//! on the default seed and compared byte for byte with the committed
//! file, and read back through the one JSON reader and held to its
//! report's frame (`schema_version`, `passed == true`, the row's required
//! keys). A stale or hand-edited file, or a report committed without a
//! row, fails here; after a deliberate behaviour change regenerate one
//! with `harness <verb>` and commit it.

use std::collections::BTreeSet;
use std::path::Path;

use sensorcer_bench::legs::LEGS;
use sensorcer_bench::DEFAULT_SEED;
use sensorcer_trace::json::Json;
use sensorcer_trace::EXPORT_SCHEMA_VERSION;

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

/// Each row's run on the default seed passes and writes exactly the
/// committed bytes; the Perfetto stream opens with the `Trace.packet` tag
/// (field 1, length-delimited = `0x0a`) that ui.perfetto.dev requires.
#[test]
fn every_committed_report_is_what_its_leg_writes_today() {
    let mut stale = Vec::new();
    for leg in LEGS {
        let run = (leg.run)(DEFAULT_SEED);
        assert!(run.failures.is_empty(), "{}: {:?}", leg.file, run.failures);
        assert_eq!(run.side.is_some(), leg.side_ext.is_some(), "{}", leg.file);
        if leg.side_ext == Some("perfetto-trace") {
            let first = run.side.as_deref().and_then(|s| s.first());
            assert_eq!(first, Some(&0x0a), "{}: bad protobuf magic byte", leg.file);
        }
        let committed =
            std::fs::read(root().join(leg.file)).unwrap_or_else(|e| panic!("{}: {e}", leg.file));
        if run.report.render().as_bytes() != committed {
            stale.push(format!(
                "{} is stale: `harness {}` writes other bytes on seed {DEFAULT_SEED}",
                leg.file, leg.verb
            ));
        }
    }
    assert!(stale.is_empty(), "{stale:#?}");
}

/// `[out]` defaults to the committed report on the default seed only:
/// another seed without a path is refused, so it can never overwrite one.
#[test]
fn only_the_default_seed_writes_the_committed_report() {
    let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let seed = DEFAULT_SEED.to_string();
    for leg in LEGS {
        let committed = (DEFAULT_SEED, leg.file.to_string());
        assert_eq!(leg.args(&[]), Ok(committed.clone()));
        assert_eq!(leg.args(&args(&[&seed])), Ok(committed));
        assert!(leg.args(&args(&["7"])).is_err(), "{}", leg.verb);
        assert_eq!(leg.args(&args(&["7", "x.json"])), Ok((7, "x.json".into())));
        assert!(leg.args(&args(&["seven"])).is_err(), "{}", leg.verb);
    }
}

#[test]
fn every_committed_artifact_reads_back_passing_and_whole() {
    for leg in LEGS {
        let problems = check_report(&read(leg.file), leg.required);
        assert!(problems.is_empty(), "{}: {problems:?}", leg.file);
    }
}

/// Every `*.json` report at the repo root has a row in [`LEGS`], and
/// every row names a file that is there: a stale report left behind or a
/// new one committed without a check fails here. `BENCHMARK.json` (the
/// benchmark's contract) is not a report, and `harness chaos`'s
/// `*.spans.json` is never committed.
#[test]
fn every_report_at_the_root_is_checked() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(root())
        .expect("repo root lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json") && n != "BENCHMARK.json" && !n.ends_with(".spans.json"))
        .collect();
    let checked: BTreeSet<String> = LEGS.iter().map(|l| l.file.to_string()).collect();
    assert_eq!(on_disk, checked);
}

/// The check is not vacuous: a copy with `passed` flipped to `false` and
/// a copy missing any one required key (at any depth) are each refused —
/// after a round trip through the writer and the reader, as a file on
/// disk would be.
#[test]
fn a_failing_or_incomplete_copy_is_refused() {
    let reread = |doc: &Json| Json::parse(doc.render().as_bytes()).expect("reads back");
    for leg in LEGS {
        let (name, required) = (leg.file, leg.required);
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
