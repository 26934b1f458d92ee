//! The perf-regression gate behind `figures -- check`.
//!
//! Two layers of comparison against the committed `BENCH_figures.json`:
//!
//! 1. **Deterministic sections** (modeled cycles, instruction counts,
//!    cache event counts): recomputed fresh and compared exactly (to
//!    float-formatting precision). Any drift is a real behavior change —
//!    a scheduling, cost-model, or executor regression — and fails the
//!    gate outright.
//! 2. **Wall-clock baselines** (the snapshot's `baselines` object):
//!    re-measured as a min-of-N and compared against the committed value
//!    scaled by a per-metric tolerance factor. Wall time is
//!    host-dependent, so tolerances are generous; the gate catches
//!    order-of-magnitude cliffs (an accidental O(n²), the native tier
//!    silently falling back to the interpreter), not percent-level noise.
//!
//! `TIRAMISU_PERF_GATE=0` skips layer 2 (for hosts too noisy even for
//! generous tolerances); layer 1 always runs.

use crate::json::Json;

/// Relative tolerance for "equal" deterministic numbers: both sides are
/// `{:.6}`-formatted doubles, so anything beyond rounding is real drift.
const DET_REL_TOL: f64 = 1e-9;

/// One committed wall-clock baseline: fail when a fresh min-of-N exceeds
/// `value * tolerance`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSpec {
    /// Metric name (e.g. `"sgemm_wall_us"`).
    pub name: String,
    /// Committed reference value (microseconds).
    pub value: f64,
    /// Allowed slowdown factor (e.g. `5.0` = fail beyond 5× slower).
    pub tolerance: f64,
}

/// Reads the snapshot's `baselines` object into specs. Members that are
/// not `{"value": n, "tolerance": n}` objects are reported as errors
/// rather than silently skipped.
///
/// # Errors
///
/// A description of each malformed member.
pub fn parse_baselines(baselines: &Json) -> Result<Vec<BaselineSpec>, Vec<String>> {
    let Some(members) = baselines.as_obj() else {
        return Err(vec!["`baselines` is not an object".to_string()]);
    };
    let mut specs = Vec::new();
    let mut errs = Vec::new();
    for (name, v) in members {
        match (
            v.get("value").and_then(Json::as_f64),
            v.get("tolerance").and_then(Json::as_f64),
        ) {
            (Some(value), Some(tolerance)) if value > 0.0 && tolerance >= 1.0 => {
                specs.push(BaselineSpec { name: name.clone(), value, tolerance });
            }
            _ => errs.push(format!(
                "baseline `{name}` must be {{\"value\": >0, \"tolerance\": >=1}}"
            )),
        }
    }
    if errs.is_empty() {
        Ok(specs)
    } else {
        Err(errs)
    }
}

/// Deep-compares two parsed snapshots, ignoring top-level keys in
/// `ignore` (the wall-clock `baselines` section takes the tolerance path
/// instead). Returns one message per difference, each naming the JSON
/// path, so a failed gate says exactly which figure drifted.
#[must_use]
pub fn compare_deterministic(committed: &Json, fresh: &Json, ignore: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    match (committed.as_obj(), fresh.as_obj()) {
        (Some(c), Some(f)) => {
            for (k, cv) in c {
                if ignore.contains(&k.as_str()) {
                    continue;
                }
                match fresh.get(k) {
                    Some(fv) => diff_value(cv, fv, k, &mut out),
                    None => out.push(format!("`{k}`: present in committed, missing fresh")),
                }
            }
            for (k, _) in f {
                if !ignore.contains(&k.as_str()) && committed.get(k).is_none() {
                    out.push(format!(
                        "`{k}`: new section not in committed snapshot (regenerate with `figures -- all`)"
                    ));
                }
            }
        }
        _ => out.push("snapshot root is not an object".to_string()),
    }
    out
}

fn num_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= DET_REL_TOL * a.abs().max(b.abs())
}

fn diff_value(c: &Json, f: &Json, path: &str, out: &mut Vec<String>) {
    match (c, f) {
        (Json::Num(a), Json::Num(b)) => {
            if !num_eq(*a, *b) {
                out.push(format!("`{path}`: committed {a} vs fresh {b}"));
            }
        }
        (Json::Obj(cm), Json::Obj(_)) => {
            for (k, cv) in cm {
                let p = format!("{path}.{k}");
                match f.get(k) {
                    Some(fv) => diff_value(cv, fv, &p, out),
                    None => out.push(format!("`{p}`: missing in fresh run")),
                }
            }
            for (k, _) in f.as_obj().unwrap_or(&[]) {
                if c.get(k).is_none() {
                    out.push(format!("`{path}.{k}`: new member not in committed snapshot"));
                }
            }
        }
        (Json::Arr(ca), Json::Arr(fa)) => {
            if ca.len() != fa.len() {
                out.push(format!(
                    "`{path}`: length {} vs {} in fresh run",
                    ca.len(),
                    fa.len()
                ));
                return;
            }
            for (i, (cv, fv)) in ca.iter().zip(fa).enumerate() {
                diff_value(cv, fv, &format!("{path}[{i}]"), out);
            }
        }
        _ => {
            if c != f {
                out.push(format!("`{path}`: committed {c:?} vs fresh {f:?}"));
            }
        }
    }
}

/// Applies the tolerance gate: for each committed spec, the fresh
/// measurement must exist and satisfy `fresh <= value * tolerance`.
/// Speedups never fail the gate (re-bless to tighten the baseline).
#[must_use]
pub fn gate_baselines(specs: &[BaselineSpec], fresh: &[(String, f64)]) -> Vec<String> {
    let mut out = Vec::new();
    for spec in specs {
        match fresh.iter().find(|(n, _)| *n == spec.name) {
            None => out.push(format!("baseline `{}` was not measured", spec.name)),
            Some((_, got)) => {
                let limit = spec.value * spec.tolerance;
                if *got > limit {
                    out.push(format!(
                        "baseline `{}` regressed: {:.1}us > {:.1}us ({:.1}us committed x {} tolerance)",
                        spec.name, got, limit, spec.value, spec.tolerance
                    ));
                }
            }
        }
    }
    out
}

/// Extracts the raw text of one top-level member's value from a snapshot
/// file (brace/bracket matching, string-aware). Lets `figures -- all`
/// re-emit the committed `baselines` byte-for-byte — wall-clock numbers
/// must not churn on every regeneration or the CI staleness diff would
/// never be clean.
#[must_use]
pub fn extract_raw_member(src: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = src.find(&needle)?;
    let rest = &src[at + needle.len()..];
    let start = rest.find(|c: char| !c.is_whitespace())?;
    let b = &rest.as_bytes()[start..];
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for (i, &c) in b.iter().enumerate() {
        if in_str {
            match c {
                _ if escape => escape = false,
                b'\\' => escape = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[start..start + i + 1].to_string());
                }
            }
            b',' if depth == 0 => return Some(rest[start..start + i].trim_end().to_string()),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn identical_snapshots_pass() {
        let j = parse(r#"{"a": {"x": 1.5}, "b": [1, 2]}"#).unwrap();
        assert!(compare_deterministic(&j, &j, &["baselines"]).is_empty());
    }

    #[test]
    fn drifted_number_names_its_path() {
        let c = parse(r#"{"a": {"x": 1.5}}"#).unwrap();
        let f = parse(r#"{"a": {"x": 2.5}}"#).unwrap();
        let d = compare_deterministic(&c, &f, &[]);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("`a.x`"), "{d:?}");
    }

    #[test]
    fn ignored_sections_do_not_fail() {
        let c = parse(r#"{"baselines": {"m": {"value": 1, "tolerance": 5}}, "a": 1}"#).unwrap();
        let f = parse(r#"{"a": 1}"#).unwrap();
        assert!(compare_deterministic(&c, &f, &["baselines"]).is_empty());
    }

    #[test]
    fn missing_and_extra_members_are_reported() {
        let c = parse(r#"{"a": {"x": 1, "y": 2}}"#).unwrap();
        let f = parse(r#"{"a": {"x": 1, "z": 3}}"#).unwrap();
        let d = compare_deterministic(&c, &f, &[]);
        assert!(d.iter().any(|m| m.contains("`a.y`")), "{d:?}");
        assert!(d.iter().any(|m| m.contains("`a.z`")), "{d:?}");
    }

    #[test]
    fn baseline_gate_applies_tolerance() {
        let specs = vec![BaselineSpec { name: "m".into(), value: 100.0, tolerance: 5.0 }];
        assert!(gate_baselines(&specs, &[("m".into(), 499.0)]).is_empty());
        let fail = gate_baselines(&specs, &[("m".into(), 501.0)]);
        assert_eq!(fail.len(), 1);
        assert!(fail[0].contains("regressed"), "{fail:?}");
        // A speedup passes (tighten by re-blessing, not by failing CI).
        assert!(gate_baselines(&specs, &[("m".into(), 10.0)]).is_empty());
        // An unmeasured baseline is an error, not a silent pass.
        assert_eq!(gate_baselines(&specs, &[]).len(), 1);
    }

    #[test]
    fn parse_baselines_validates_shape() {
        let good =
            parse(r#"{"m": {"value": 10.5, "tolerance": 5}, "n": {"value": 1, "tolerance": 2}}"#)
                .unwrap();
        let specs = parse_baselines(&good).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0], BaselineSpec { name: "m".into(), value: 10.5, tolerance: 5.0 });
        let bad = parse(r#"{"m": {"value": -1, "tolerance": 5}}"#).unwrap();
        assert!(parse_baselines(&bad).is_err());
    }

    #[test]
    fn raw_member_extraction_matches_bytes() {
        let src = "{\n  \"a\": 1,\n  \"baselines\": {\"m\": {\"value\": 1.5, \"tolerance\": 5}},\n  \"z\": 2\n}\n";
        assert_eq!(
            extract_raw_member(src, "baselines").as_deref(),
            Some("{\"m\": {\"value\": 1.5, \"tolerance\": 5}}")
        );
        assert_eq!(extract_raw_member(src, "a").as_deref(), Some("1"));
        assert_eq!(extract_raw_member(src, "missing"), None);
    }
}
