//! Metric tables, result output, and the A/A comparison.

use std::process::ExitCode;

use crate::json::Json;
use crate::passes::Tally;
use crate::Args;

/// `(name, unit, better)`. `BENCHMARK.json` carries the same rows plus
/// each metric's bound; a test keeps the two in step.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p90_us", "us", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("sim_ms_per_op", "ms", "lower"),
    ("wire_bytes_per_op", "B", "lower"),
    ("allocs_per_op", "count", "lower"),
    ("alloc_bytes_per_op", "B", "lower"),
    ("heap_peak_mb", "MB", "lower"),
];

/// End-to-end metrics that are functions of (seed, commit) alone: two runs
/// of the same code must agree on them to the last digit.
pub const EXACT: [&str; 6] = [
    "ok_ratio",
    "sim_ms_per_op",
    "wire_bytes_per_op",
    "allocs_per_op",
    "alloc_bytes_per_op",
    "heap_peak_mb",
];

pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("sim.env.timer_ns", "ns", "lower"),
    ("sim.env.pending_timers", "count", "lower"),
    ("sim.env.timers_per_op", "count", "lower"),
    ("sim.env.call_ns", "ns", "lower"),
    ("sim.env.calls_per_op", "count", "lower"),
    ("sim.metrics.add_ns", "ns", "lower"),
    ("sim.wire.packets_per_op", "count", "lower"),
    ("sim.wire.header_ratio", "ratio", "lower"),
    ("sim.shard.overhead_ratio", "ratio", "lower"),
    ("sim.shard.windows_per_sim_s", "count", "lower"),
    ("registry.lus.lookup_one_ns", "ns", "lower"),
    ("registry.lus.lookup_iface_ns", "ns", "lower"),
    ("registry.lus.lookup_template_ns", "ns", "lower"),
    ("registry.lus.register_ns", "ns", "lower"),
    ("registry.lus.cancel_ns", "ns", "lower"),
    ("registry.lus.renew_ns", "ns", "lower"),
    ("registry.lus.modify_attributes_ns", "ns", "lower"),
    ("registry.lus.reap_ns", "ns", "lower"),
    ("registry.hier.rare_query_ns", "ns", "lower"),
    ("registry.hier.universal_query_ns", "ns", "lower"),
    ("registry.renewal.renewals_failed", "count", "lower"),
    ("registry.lus.items_end", "count", "higher"),
    ("exertion.fmi.bind_ns", "ns", "lower"),
    ("exertion.fmi.exert_ns", "ns", "lower"),
    ("exertion.context.build_ns", "ns", "lower"),
    ("exertion.retry.retries_per_op", "count", "lower"),
    ("core.esp.read_ns", "ns", "lower"),
    ("core.csp.read_ns", "ns", "lower"),
    ("core.csp.self_ns_per_child", "ns", "lower"),
    ("core.csp.failover_attempts_per_op", "count", "lower"),
    ("core.csp.degraded_ratio", "ratio", "lower"),
    ("core.admission.breaker_skipped_per_op", "count", "lower"),
    ("core.facade.read_ns", "ns", "lower"),
    ("core.facade.self_ns", "ns", "lower"),
    ("core.facade.read_p99_us", "us", "lower"),
    ("core.admission.admit_ns", "ns", "lower"),
    ("core.admission.shed_ratio", "ratio", "lower"),
    ("core.admission.queue_delay_ratio", "ratio", "lower"),
    ("expr.program.compile_ns", "ns", "lower"),
    ("expr.program.bind_ns", "ns", "lower"),
    ("expr.program.binds_per_op", "count", "lower"),
    ("sensors.probe.sample_ns", "ns", "lower"),
    ("obs.slo.record_ns", "ns", "lower"),
    ("trace.recorder.span_ns", "ns", "lower"),
    ("trace.recorder.spans_per_op", "count", "lower"),
    ("trace.recorder.overhead_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
    ("bench.op_p99_us", "us", "lower"),
    ("ledger.explained_ratio", "ratio", "higher"),
];

/// What one run found.
#[derive(Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Facts about the run that are not metrics: the outcome hash, sample
    /// counts, the ledger's rows.
    extras: Vec<(&'static str, Json)>,
    problems: Vec<String>,
    /// The traced pass's spans, written beside the result.
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is {value}"));
        }
        self.metrics.push((name, value));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _)| *n == name)
    }

    pub fn extra(&mut self, name: &'static str, value: Json) {
        self.extras.push((name, value));
    }

    pub fn verify(&mut self, pass: &str, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.problems.push(format!("{pass}: {why}"));
        }
    }

    /// Close the run: it is correct if no op failed, no value was out of
    /// range, every world invariant held and every metric is a number.
    pub fn finish(&mut self, total: &Tally) {
        self.attempted = total.attempted;
        self.failed = total.failed;
        if total.invalid > 0 {
            self.problems.push(format!(
                "{} values were NaN or out of their sensor's range",
                total.invalid
            ));
        }
        if total.failed > 0 {
            self.problems.push(format!("{} ops failed", total.failed));
        }
        self.correct = self.problems.is_empty();
    }

    fn metrics_json(&self, table: &[(&str, &str, &str)]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|(name, unit, _)| {
                    let value = self
                        .metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .unwrap_or_else(|| panic!("metric {name} was not measured"))
                        .1;
                    (
                        (*name).to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Print every metric as `name value unit`, write the result (and the
/// spans, if any) under `benchmark/out/`, and end with the one-line JSON
/// object the driver reads.
pub fn emit(args: &Args, result: &RunResult) {
    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = result.metrics_json(table);
    for problem in &result.problems {
        eprintln!("{}: INCORRECT: {problem}", args.workload.name());
    }
    if let Json::Obj(rows) = &metrics {
        for (name, row) in rows {
            let value = row.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = row.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{name} {value} {unit}");
        }
    }
    for (name, value) in &result.extras {
        if *name != "ledger" {
            println!("# {name} {}", value.render());
        }
    }

    let mut file = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        ("correct".to_string(), Json::Bool(result.correct)),
        ("attempted".to_string(), Json::Num(result.attempted as f64)),
        ("failed".to_string(), Json::Num(result.failed as f64)),
    ];
    file.extend(
        result
            .extras
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone())),
    );
    file.push(("metrics".to_string(), metrics.clone()));
    let dir = std::path::Path::new("benchmark/out");
    let kind = if args.trace { "layers" } else { "end_to_end" };
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}.{kind}.json", args.workload.name())),
            Json::Obj(file).render() + "\n",
        )?;
        match &result.trace {
            Some(spans) => std::fs::write(
                dir.join(format!("trace-{}.json", args.workload.name())),
                spans.render() + "\n",
            ),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("yardstick: could not write under {}: {e}", dir.display());
    }

    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(result.correct)),
            ("attempted".into(), Json::Num(result.attempted as f64)),
            ("failed".into(), Json::Num(result.failed as f64)),
            ("metrics".into(), metrics),
        ])
        .render()
    );
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every way `b` disagrees with `a` beyond what two runs of the same code
/// may: exact metrics and the outcome hash by any difference, the others
/// by more than their bound in `bounds` (`BENCHMARK.json`'s `end_to_end`),
/// in the worse direction or the better.
pub fn disagreements(a: &Json, b: &Json, bounds: &Json) -> Vec<String> {
    let mut out = Vec::new();
    if a.get("result_fnv64") != b.get("result_fnv64") {
        out.push(format!(
            "result_fnv64: {:?} vs {:?}",
            a.get("result_fnv64"),
            b.get("result_fnv64")
        ));
    }
    let value = |doc: &Json, name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for row in bounds.as_arr().unwrap_or(&[]) {
        let (Some(name), Some(bound)) = (
            row.get("name").and_then(Json::as_str),
            row.get("bound").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let (Some(x), Some(y)) = (value(a, name), value(b, name)) else {
            out.push(format!("{name}: missing from a result"));
            continue;
        };
        let differs = if EXACT.contains(&name) {
            x != y
        } else {
            (x - y).abs() > bound * x.abs().min(y.abs())
        };
        if differs {
            out.push(format!("{name}: {x} vs {y}"));
        }
    }
    out
}

/// `yardstick compare a.json b.json`, run from the repository root.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let loaded = load(a).and_then(|a| Ok((a, load(b)?, load("BENCHMARK.json")?)));
    match loaded {
        Err(why) => {
            eprintln!("yardstick compare: {why}");
            ExitCode::from(2)
        }
        Ok((a, b, spec)) => {
            let found = disagreements(&a, &b, spec.get("end_to_end").unwrap_or(&Json::Null));
            for d in &found {
                println!("DISAGREE {d}");
            }
            if found.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::Workload;

    fn spec() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn rows(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let spec = spec();
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(rows(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(rows(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for name in EXACT {
            assert!(END_TO_END.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }

    fn doc(fnv: &str, ops: f64, allocs: f64) -> Json {
        let m = |v: f64| Json::Obj(vec![("value".into(), Json::Num(v))]);
        Json::Obj(vec![
            ("result_fnv64".into(), Json::Str(fnv.into())),
            (
                "metrics".into(),
                Json::Obj(vec![
                    ("ops_per_s".into(), m(ops)),
                    ("allocs_per_op".into(), m(allocs)),
                ]),
            ),
        ])
    }

    #[test]
    fn aa_comparison_is_exact_where_it_must_be_and_bounded_elsewhere() {
        let bounds = Json::parse(
            r#"[{"name": "ops_per_s", "bound": 0.1}, {"name": "allocs_per_op", "bound": 0.01}]"#,
        )
        .unwrap();
        let base = doc("ab", 1000.0, 2579.757);
        assert!(disagreements(&base, &doc("ab", 1080.0, 2579.757), &bounds).is_empty());
        assert_eq!(
            disagreements(&base, &doc("ab", 1200.0, 2579.757), &bounds).len(),
            1
        );
        assert_eq!(
            disagreements(&base, &doc("ab", 1000.0, 2579.758), &bounds).len(),
            1
        );
        assert_eq!(
            disagreements(&base, &doc("cd", 1000.0, 2579.757), &bounds).len(),
            1
        );
    }
}
