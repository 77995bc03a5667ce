//! Result rendering: the one-line JSON contract, the detailed result
//! file, and the check of a result file against `BENCHMARK.json`.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::{END_TO_END, PER_LAYER};

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn uint(v: u64) -> Value {
    Value::UInt(v)
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, …}` in declaration order.
pub fn metrics_value(names: &[&'static str], values: &BTreeMap<&'static str, f64>) -> Value {
    Value::Object(
        names
            .iter()
            .filter_map(|&n| {
                let v = *values.get(n)?;
                Some((
                    n.to_string(),
                    obj(vec![("value", num(v)), ("unit", text(unit_of(n)))]),
                ))
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics`. An incorrect run withholds its metrics.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let metrics = if correct { metrics } else { obj(vec![]) };
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", uint(attempted.max(1))),
        ("failed", uint(failed)),
        ("metrics", metrics),
    ]))
    .expect("serializes")
}

/// The manifest's rule for workload and metric names.
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Check a result file (as written by `--all`) against the manifest:
/// every declared metric present under every workload with its declared
/// unit, nothing undeclared, names well-formed, and the summary claiming
/// no gain.
pub fn check_result(manifest: &Value, result: &Value) -> Result<(), String> {
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("manifest has no {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("manifest {key} entry lacks {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    let sections = [
        ("end_to_end", declared("end_to_end")?),
        ("per_layer", declared("per_layer")?),
    ];
    let workloads = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("manifest has no workloads")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("unnamed workload")?;
        if !name_ok(name) {
            return Err(format!("workload name {name:?} is malformed"));
        }
        let got = result
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .ok_or(format!("result has no workload {name}"))?;
        for flag in ["correct", "valid"] {
            if got.get(flag).and_then(Value::as_bool) != Some(true) {
                return Err(format!("{name}: {flag} is not true"));
            }
        }
        for (section, want) in &sections {
            let have = got
                .get(section)
                .and_then(Value::as_object)
                .ok_or(format!("{name}: no {section} metrics"))?;
            for (metric, unit) in want {
                if !name_ok(metric) {
                    return Err(format!("metric name {metric:?} is malformed"));
                }
                let entry = have
                    .iter()
                    .find(|(k, _)| k == metric)
                    .map(|(_, v)| v)
                    .ok_or(format!("{name}: {metric} is missing"))?;
                if entry.get("unit").and_then(Value::as_str) != Some(unit) {
                    return Err(format!("{name}: {metric} has the wrong unit"));
                }
                if !entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    return Err(format!("{name}: {metric} has no finite value"));
                }
            }
            if let Some((extra, _)) = have.iter().find(|(k, _)| !want.iter().any(|(n, _)| n == k)) {
                return Err(format!("{name}: {extra} is not declared in the manifest"));
            }
        }
    }
    match result.get("summary").and_then(|s| s.get("claim")) {
        Some(Value::Null) => Ok(()),
        _ => Err("summary does not end with \"claim\": null".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_withholds_on_error() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.0421);
        values.insert("recover_p50_ms", 8.25);
        let m = metrics_value(&["setup_s", "recover_p50_ms"], &values);
        let line = contract_line(true, 10, 0, m.clone());
        let v = serde_json::from_str(&line).expect("json");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v
            .get("metrics")
            .and_then(|m| m.get("recover_p50_ms"))
            .expect("p50");
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(8.25));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        let bad = serde_json::from_str(&contract_line(false, 0, 3, m)).expect("json");
        assert_eq!(
            bad.get("metrics")
                .and_then(Value::as_object)
                .map(<[_]>::len),
            Some(0)
        );
        assert_eq!(bad.get("attempted").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn result_check_catches_missing_undeclared_and_claims() {
        let manifest = serde_json::from_str(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"a_ms","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"l.b","unit":"count","better":"lower"}]}"#,
        )
        .expect("manifest");
        let result = |e2e: &str, layer: &str, claim: &str| {
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"w":{{"correct":true,"valid":true,"end_to_end":{{{e2e}}},"per_layer":{{{layer}}}}}}},"summary":{{"claim":{claim}}}}}"#
            ))
            .expect("result")
        };
        let a = r#""a_ms":{"value":1.5,"unit":"ms"}"#;
        let b = r#""l.b":{"value":2,"unit":"count"}"#;
        assert_eq!(check_result(&manifest, &result(a, b, "null")), Ok(()));
        assert!(check_result(&manifest, &result("", b, "null")).is_err());
        assert!(check_result(
            &manifest,
            &result(a, r#""l.b":{"value":2,"unit":"ms"}"#, "null")
        )
        .is_err());
        let extra = format!(r#"{b},"l.c":{{"value":1,"unit":"count"}}"#);
        assert!(check_result(&manifest, &result(a, &extra, "null")).is_err());
        assert!(check_result(&manifest, &result(a, b, "\"faster\"")).is_err());
    }
}
