//! In-repo source lints for the workspace (`harness lint`).
//!
//! Seven rules — five over `crates/*/src`, one over the `Cargo.toml`
//! manifests, one over both:
//!
//! * `unwrap-outside-tests` — `.unwrap()` / `.expect(` in production
//!   code. Panicking on a fallible path contradicts the federation's
//!   degrade-don't-die posture; tests, benches (the `bench` crate) and
//!   `#[cfg(test)]` modules are exempt. A deliberate, justified panic
//!   site is allowlisted with a `// lint:allow(unwrap): <why>` comment
//!   on the same or the preceding line.
//! * `wallclock-in-sim` — `SystemTime::now` / `Instant::now` in
//!   deterministic code. Virtual time is the whole point of the sim;
//!   only the `bench` crate (real measurements) and `runtime` (thread
//!   pool) may read the wall clock. Allowlist: `lint:allow(wallclock)`.
//! * `pub-field-on-state-machine` — `pub` fields on the lifecycle
//!   state-machine types checked by this crate. Their invariants hold
//!   only if every mutation goes through their methods.
//! * `direct-queue-access` — `timer_queue` touched from `sim` code other
//!   than `env.rs`/`shard.rs`. The sharded engine's determinism rests on
//!   every push and pop flowing through `Env`'s scheduling API (global
//!   `(deadline, seq)` order, window migration); shard-local code going
//!   around it can reorder timers. Allowlist: `lint:allow(queue)`.
//! * `admission-bypass` — a raw `exert(`/`exert_on(` call in the façade
//!   layer (`core`'s `facade.rs`). Overload protection only holds if
//!   every tenant-facing dispatch passes the admission gate; a direct
//!   exertion from façade code skips the token buckets, QoS classing and
//!   shedding entirely. The one legitimate site — the client-side call
//!   *into* the gate itself — is allowlisted: `lint:allow(admission)`.
//! * `no-external-deps` — every entry in a `[dependencies]`,
//!   `[dev-dependencies]`, `[build-dependencies]` or
//!   `[workspace.dependencies]` section of the root or a crate manifest
//!   must be workspace-internal (`path = "…"` or `workspace = true`).
//!   The reproduction's dependency-free invariant is what keeps it
//!   buildable offline; this pins it. Escape: `lint:allow(deps)`.
//! * `unknown-lint-allow` — an escape comment naming a rule the scanner
//!   does not implement, tests and benches included. An escape whose
//!   rule was deleted or misspelt suppresses nothing and would otherwise
//!   linger as a justification for a check nobody runs.
//!
//! The scanner is deliberately line-based and dependency-free: it
//! understands `//` comments, brace depth and `#[cfg(test)]` blocks,
//! which is exactly enough for this repo's own style.

use std::path::{Path, PathBuf};

/// `(crate, type)` pairs whose fields must stay private (their
/// transitions are checked against [`crate::lifecycle`] tables). Scoped
/// by crate so unrelated types sharing a name — e.g. the federation
/// deployment bundle in `core` — are not swept in.
const STATE_MACHINE_TYPES: &[(&str, &str)] = &[
    ("registry", "LeaseTable"),
    ("registry", "LookupService"),
    ("registry", "EventMailbox"),
    ("provision", "ProvisionMonitor"),
    ("provision", "Deployment"),
    ("trace", "FlightRecorder"),
];

/// Crates allowed to use `.unwrap()`/`.expect()` freely (benchmarks).
const UNWRAP_EXEMPT_CRATES: &[&str] = &["bench"];

/// Crates allowed to read the wall clock.
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["bench", "runtime"];

/// One lint hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub excerpt: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

/// Everything before a `//` comment (string-blind, which is fine for
/// detection: a `//` inside a string literal only makes the check more
/// lenient on that line, never a false positive about a comment).
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// How an escape comment opens; the rule's escape name and `)` follow.
const ALLOW_OPEN: &str = "lint:allow(";

/// The escape names the rules above honour.
const ALLOW_NAMES: &[&str] = &["unwrap", "wallclock", "queue", "admission", "deps"];

/// The name inside every escape comment on a line.
fn allow_names(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(ALLOW_OPEN)
        .skip(1)
        .filter_map(|rest| rest.split_once(')').map(|(name, _)| name))
}

fn allows(raw: &str, prev: Option<&str>, marker: &str) -> bool {
    allow_names(raw)
        .chain(prev.into_iter().flat_map(allow_names))
        .any(|name| name == marker)
}

/// Flag `raw` if it carries an escape whose name no rule honours.
fn unknown_allows(rel_path: &str, line_no: usize, raw: &str, findings: &mut Vec<LintFinding>) {
    if allow_names(raw).any(|name| !ALLOW_NAMES.contains(&name)) {
        findings.push(LintFinding {
            file: rel_path.to_string(),
            line: line_no,
            rule: "unknown-lint-allow",
            excerpt: raw.trim().to_string(),
        });
    }
}

/// Whether `code` contains a call to `exert(` or `exert_on(` — an
/// identifier boundary check keeps wrappers like `admitted_exert(` (and
/// any other `*exert` name) from matching.
fn calls_exert(code: &str) -> bool {
    for pat in ["exert(", "exert_on("] {
        let mut from = 0;
        while let Some(i) = code[from..].find(pat) {
            let at = from + i;
            let ident_before = code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if !ident_before {
                return true;
            }
            from = at + pat.len();
        }
    }
    false
}

fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Lint one file's source. `crate_name` decides rule applicability.
fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let check_unwrap = !UNWRAP_EXEMPT_CRATES.contains(&crate_name);
    let check_wallclock = !WALLCLOCK_EXEMPT_CRATES.contains(&crate_name);
    // Only the event engine itself may hold the queue; everything else in
    // `sim` schedules through `Env`'s API.
    let check_queue =
        crate_name == "sim" && !rel_path.ends_with("env.rs") && !rel_path.ends_with("shard.rs");
    // The façade is the tenant-facing entry point: every dispatch it
    // makes must flow through the admission gate, never a raw exertion.
    let check_admission = crate_name == "core" && rel_path.ends_with("facade.rs");

    let mut depth: i32 = 0;
    // Depth at which a `#[cfg(test)] mod` opened; everything inside it is
    // exempt from the unwrap rule.
    let mut test_block: Option<i32> = None;
    let mut pending_cfg_test = false;
    // Depth at which a guarded struct's body opened.
    let mut struct_block: Option<i32> = None;
    let mut prev_raw: Option<&str> = None;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let code = code_of(raw);
        let trimmed = code.trim_start();
        let in_test = test_block.is_some();
        unknown_allows(rel_path, line_no, raw, &mut findings);

        if !in_test {
            if raw.trim_start().starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test && !raw.trim_start().starts_with("#[") {
                if trimmed.contains("mod ") || trimmed.contains("fn ") {
                    test_block = Some(depth);
                }
                if !raw.trim().is_empty() {
                    pending_cfg_test = false;
                }
            }
        }

        let exempt = in_test || test_block.is_some();
        if !exempt {
            // `.expect("` (with the quote) keeps parser-combinator methods
            // named `expect` — e.g. `self.expect(Tok::Colon, ..)` — out.
            if check_unwrap
                // lint:allow(unwrap): detection patterns, not calls
                && (code.contains(".unwrap()") || code.contains(".expect(\""))
                && !allows(raw, prev_raw, "unwrap")
            {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "unwrap-outside-tests",
                    excerpt: raw.trim().to_string(),
                });
            }
            if check_wallclock
                // lint:allow(wallclock): detection patterns, not calls
                && (code.contains("SystemTime::now") || code.contains("Instant::now"))
                && !allows(raw, prev_raw, "wallclock")
            {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "wallclock-in-sim",
                    excerpt: raw.trim().to_string(),
                });
            }
            if check_queue && code.contains("timer_queue") && !allows(raw, prev_raw, "queue") {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "direct-queue-access",
                    excerpt: raw.trim().to_string(),
                });
            }
            if check_admission && calls_exert(code) && !allows(raw, prev_raw, "admission") {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "admission-bypass",
                    excerpt: raw.trim().to_string(),
                });
            }

            if struct_block.is_none()
                && trimmed.contains("struct ")
                && code.contains('{')
                && STATE_MACHINE_TYPES
                    .iter()
                    .filter(|(c, _)| *c == crate_name)
                    .any(|(_, t)| {
                        code.split("struct ").nth(1).is_some_and(|rest| {
                            rest.trim_start().starts_with(t)
                                && !rest
                                    .trim_start()
                                    .as_bytes()
                                    .get(t.len())
                                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                        })
                    })
            {
                struct_block = Some(depth);
            } else if let Some(open) = struct_block {
                if depth > open
                    && trimmed.starts_with("pub ")
                    && !trimmed.starts_with("pub fn")
                    && !trimmed.starts_with("pub const")
                    && trimmed.contains(':')
                {
                    findings.push(LintFinding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: "pub-field-on-state-machine",
                        excerpt: raw.trim().to_string(),
                    });
                }
            }
        }

        depth += brace_delta(code);
        if let Some(open) = test_block {
            if depth <= open {
                test_block = None;
            }
        }
        if let Some(open) = struct_block {
            if depth <= open {
                struct_block = None;
            }
        }
        prev_raw = Some(raw);
    }
    findings
}

/// Classify a TOML section header: `Some(false)` = a plain dependency
/// section whose entries are audited per line, `Some(true)` = a dotted
/// `[dependencies.<name>]` item table that must contain a `path` or
/// `workspace` key, `None` = not a dependency section.
fn dep_section(name: &str) -> Option<bool> {
    for base in [
        "dependencies",
        "dev-dependencies",
        "build-dependencies",
        "workspace.dependencies",
    ] {
        if name == base {
            return Some(false);
        }
        if let Some(rest) = name.strip_prefix(base) {
            if rest.starts_with('.') {
                return Some(true);
            }
        }
    }
    // `[target.'cfg(...)'.dependencies]` — audited like a plain section.
    if name.starts_with("target.") && name.ends_with("dependencies") {
        return Some(false);
    }
    None
}

/// Audit one `Cargo.toml` for the dependency-free invariant: every
/// entry in a dependency section must resolve inside the workspace
/// (`path = "…"` or `workspace = true`). Anything that would reach
/// crates.io — a bare version, `git = `, a registry — is flagged.
pub fn lint_manifest(rel_path: &str, source: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    // A dotted dep-item table awaiting its path/workspace key:
    // (header line, header excerpt, satisfied).
    let mut dotted: Option<(usize, String, bool)> = None;
    let mut prev_raw: Option<&str> = None;

    fn flush(
        rel_path: &str,
        findings: &mut Vec<LintFinding>,
        dotted: &mut Option<(usize, String, bool)>,
    ) {
        if let Some((line, excerpt, ok)) = dotted.take() {
            if !ok {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line,
                    rule: "no-external-deps",
                    excerpt,
                });
            }
        }
    }

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let code = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let trimmed = code.trim();
        unknown_allows(rel_path, line_no, raw, &mut findings);
        if trimmed.starts_with('[') {
            flush(rel_path, &mut findings, &mut dotted);
            let name = trimmed.trim_start_matches('[').trim_end_matches(']').trim();
            match dep_section(name) {
                Some(false) => in_dep_section = true,
                Some(true) => {
                    in_dep_section = false;
                    dotted = Some((
                        line_no,
                        raw.trim().to_string(),
                        allows(raw, prev_raw, "deps"),
                    ));
                }
                None => in_dep_section = false,
            }
        } else if let Some(d) = dotted.as_mut() {
            if trimmed.contains("path") && trimmed.contains('=') && trimmed.contains('"')
                || trimmed.contains("workspace") && trimmed.contains("true")
            {
                d.2 = true;
            }
        } else if in_dep_section && !trimmed.is_empty() {
            let internal = trimmed.contains("path = \"")
                || trimmed.contains("path=\"")
                || trimmed.contains("workspace = true")
                || trimmed.contains("workspace=true");
            if !internal && !allows(raw, prev_raw, "deps") {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "no-external-deps",
                    excerpt: raw.trim().to_string(),
                });
            }
        }
        prev_raw = Some(raw);
    }
    flush(rel_path, &mut findings, &mut dotted);
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src/**/*.rs` under `root` (the workspace root),
/// plus the root and per-crate `Cargo.toml` manifests.
pub fn lint_tree(root: &Path) -> Result<Vec<LintFinding>, String> {
    let crates_dir = root.join("crates");
    let mut findings = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(crate_dirs.iter().map(|d| d.join("Cargo.toml")));
    for manifest in manifests {
        if !manifest.is_file() {
            continue;
        }
        let source = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .display()
            .to_string();
        findings.extend(lint_manifest(&rel, &source));
    }
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk(&src, &mut files)?;
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            findings.extend(lint_source(&crate_name, &rel, &source));
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_in_production_code() {
        let src = "fn f() {\n    let x = g().unwrap();\n}\n";
        let f = lint_source("core", "crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unwrap-outside-tests");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cfg_test_blocks_and_bench_crate_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { g().unwrap(); }\n}\n";
        assert!(lint_source("core", "x.rs", src).is_empty());
        let src = "fn f() { g().unwrap(); }\n";
        assert!(lint_source("bench", "x.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_previous_line() {
        let same = "fn f() { g().unwrap(); } // lint:allow(unwrap): invariant, g never fails\n";
        assert!(lint_source("core", "x.rs", same).is_empty());
        let prev = "// lint:allow(unwrap): checked above\nfn f() { g().unwrap(); }\n";
        assert!(lint_source("core", "x.rs", prev).is_empty());
    }

    #[test]
    fn comments_and_doc_examples_do_not_count() {
        let src = "/// let x = y.unwrap();\n//! z.unwrap()\n// w.unwrap()\nfn f() {}\n";
        assert!(lint_source("core", "x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_flagged_outside_bench_and_runtime() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint_source("sim", "x.rs", src).len(), 1);
        assert!(lint_source("runtime", "x.rs", src).is_empty());
        assert!(lint_source("bench", "x.rs", src).is_empty());
    }

    #[test]
    fn pub_fields_on_state_machine_types_are_flagged() {
        let src = "pub struct LookupService {\n    pub host: u32,\n    group: String,\n}\n";
        let f = lint_source("registry", "x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "pub-field-on-state-machine");
        // Other structs may expose fields freely.
        let src = "pub struct LusHandle {\n    pub host: u32,\n}\n";
        assert!(lint_source("registry", "x.rs", src).is_empty());
        // Prefix names must not match (LookupServiceX is a different type).
        let src = "pub struct LookupServiceStats {\n    pub hits: u64,\n}\n";
        assert!(lint_source("registry", "x.rs", src).is_empty());
        // Same name in another crate (core's deployment bundle) is fine.
        let src = "pub struct Deployment {\n    pub lab: u32,\n}\n";
        assert!(lint_source("core", "x.rs", src).is_empty());
        assert_eq!(lint_source("provision", "x.rs", src).len(), 1);
    }

    #[test]
    fn direct_queue_access_flagged_outside_engine_files() {
        let src = "fn f(env: &mut Env) { env.timer_queue.pop(); }\n";
        let f = lint_source("sim", "crates/sim/src/chaos.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "direct-queue-access");
        // The engine itself owns the queue.
        assert!(lint_source("sim", "crates/sim/src/env.rs", src).is_empty());
        assert!(lint_source("sim", "crates/sim/src/shard.rs", src).is_empty());
        // Other crates cannot reach the private field; the rule is scoped
        // to `sim` so unrelated identifiers elsewhere never trip it.
        assert!(lint_source("core", "crates/core/src/x.rs", src).is_empty());
        // Comments don't count; a justified access is allowlisted.
        let doc = "/// peeks `timer_queue` under the hood\nfn f() {}\n";
        assert!(lint_source("sim", "crates/sim/src/chaos.rs", doc).is_empty());
        let allowed = "// lint:allow(queue): test-only drain helper\n\
                       fn f(env: &mut Env) { env.timer_queue.pop(); }\n";
        assert!(lint_source("sim", "crates/sim/src/chaos.rs", allowed).is_empty());
    }

    #[test]
    fn admission_bypass_flagged_in_facade_code_only() {
        let src = "fn f(env: &mut Env) { exert_on(env, from, svc, task, None); }\n";
        let f = lint_source("core", "crates/core/src/facade.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "admission-bypass");
        // The exertion runtime and the CSP fan-out dispatch legitimately.
        assert!(lint_source("exertion", "crates/exertion/src/exert.rs", src).is_empty());
        assert!(lint_source("core", "crates/core/src/csp.rs", src).is_empty());
        // Plain `exert(` is caught too; wrapper names are not.
        let plain = "fn f() { exert(env, task); }\n";
        assert_eq!(
            lint_source("core", "crates/core/src/facade.rs", plain).len(),
            1
        );
        let wrapper = "fn f() { admitted_exert(env, task); }\n";
        assert!(lint_source("core", "crates/core/src/facade.rs", wrapper).is_empty());
        // The call into the gate itself carries the justification marker.
        let allowed = "// lint:allow(admission): this call targets the gate itself\n\
                       fn f() { exert_on(env, from, svc, task, None); }\n";
        assert!(lint_source("core", "crates/core/src/facade.rs", allowed).is_empty());
    }

    #[test]
    fn an_escape_naming_no_implemented_rule_is_flagged() {
        // Built from ALLOW_OPEN so this file's own scan sees no escape.
        let stale = format!("fn f() {{}} // {ALLOW_OPEN}retired): the rule is gone\n");
        let f = lint_source("core", "x.rs", &stale);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unknown-lint-allow");
        // Tests and the bench crate are no shelter, nor are manifests.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    // {ALLOW_OPEN}retired)\n}}\n");
        assert_eq!(lint_source("bench", "x.rs", &in_test).len(), 1);
        let manifest = format!("[package]\n# {ALLOW_OPEN}retired)\nname = \"x\"\n");
        assert_eq!(lint_manifest("Cargo.toml", &manifest).len(), 1);
        // Every honoured name passes, used or not.
        for name in ALLOW_NAMES {
            let live = format!("fn f() {{}} // {ALLOW_OPEN}{name}): why\n");
            assert!(lint_source("core", "x.rs", &live).is_empty(), "{name}");
        }
    }

    #[test]
    fn external_deps_are_flagged_in_manifests() {
        let src = "[dependencies]\nrand = \"0.8\"\n";
        let f = lint_manifest("crates/x/Cargo.toml", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-external-deps");
        assert_eq!(f[0].line, 2);
        // Workspace-internal forms pass, in every spelling the repo uses.
        let src = "[dependencies]\nsensorcer-sim.workspace = true\n\
                   foo = { path = \"../foo\" }\n";
        assert!(lint_manifest("Cargo.toml", src).is_empty());
        // Dev/build sections and the workspace table are audited too.
        assert_eq!(
            lint_manifest(
                "Cargo.toml",
                "[dev-dependencies]\nproptest = { version = \"1\" }\n"
            )
            .len(),
            1
        );
        assert_eq!(
            lint_manifest("Cargo.toml", "[workspace.dependencies]\nserde = \"1\"\n").len(),
            1
        );
        // Dotted item tables: external flagged at the header, path ok.
        assert_eq!(
            lint_manifest("Cargo.toml", "[dependencies.rand]\nversion = \"0.8\"\n").len(),
            1
        );
        assert!(lint_manifest("Cargo.toml", "[dependencies.sim]\npath = \"../sim\"\n").is_empty());
        // Non-dependency sections are ignored.
        let src = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n[profile.release]\ndebug = true\n";
        assert!(lint_manifest("Cargo.toml", src).is_empty());
        // A justified exception is allowlisted.
        let src = "[dependencies]\n# lint:allow(deps): vendored locally\nrand = \"0.8\"\n";
        assert!(lint_manifest("Cargo.toml", src).is_empty());
    }

    #[test]
    fn whole_tree_lints_clean() {
        // CARGO_MANIFEST_DIR = crates/verify → workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_tree(&root).expect("walk the tree");
        assert!(
            findings.is_empty(),
            "banned patterns in production code:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
