//! Runtime audit of metric names against the one house convention:
//! `subsystem.object.action` — at least three dot-separated segments,
//! each lowercase `[a-z0-9_]`, no empty segments, no leading digit.
//!
//! Sources register counters and gauges by free-form string key, so a
//! typo'd or legacy name (`packets_sent`, `csp.reads`) silently forks a
//! new series instead of failing to compile. The tier-1 test
//! `tests/metric_names.rs` feeds every key a representative run
//! registers through [`check_names`] and fails on any nonconforming one.

/// Why a name failed the audit. `None` means the name conforms.
pub fn check_name(name: &str) -> Option<String> {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 3 {
        return Some(format!(
            "'{name}': {} segment(s), convention requires subsystem.object.action (>= 3)",
            segments.len()
        ));
    }
    for seg in &segments {
        if seg.is_empty() {
            return Some(format!("'{name}': empty segment"));
        }
        if seg.starts_with(|c: char| c.is_ascii_digit()) {
            return Some(format!("'{name}': segment '{seg}' starts with a digit"));
        }
        if let Some(bad) = seg
            .chars()
            .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_'))
        {
            return Some(format!(
                "'{name}': segment '{seg}' contains '{bad}' (allowed: a-z, 0-9, _)"
            ));
        }
    }
    None
}

/// Audit a batch of names; returns one message per violation, in input
/// order. Empty result means every name conforms.
pub fn check_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    names.into_iter().filter_map(check_name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_names_pass() {
        for name in [
            "net.packets.sent",
            "csp.reads.total",
            "chaos.faults.partition",
            "sensor.read.last_ns",
            "fmi.dispatch.retries.exhausted", // four segments is fine
        ] {
            assert!(check_name(name).is_none(), "{name} should pass");
        }
    }

    #[test]
    fn violations_are_caught_with_reasons() {
        assert!(check_name("packets_sent").unwrap().contains("1 segment"));
        assert!(check_name("csp.reads").unwrap().contains("2 segment"));
        assert!(check_name("net..sent").unwrap().contains("empty segment"));
        assert!(check_name("net.Packets.sent").unwrap().contains("'P'"));
        assert!(check_name("net.packets.re-sent").unwrap().contains("'-'"));
        assert!(check_name("net.2packets.sent")
            .unwrap()
            .contains("starts with a digit"));
    }

    #[test]
    fn batch_audit_preserves_order() {
        let bad = check_names(vec!["a.b.c", "nope", "x.y.z", "also bad"]);
        assert_eq!(bad.len(), 2);
        assert!(bad[0].contains("nope"));
        assert!(bad[1].contains("also bad"));
    }
}
