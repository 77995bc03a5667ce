//! A Prometheus text-exposition lint.
//!
//! Validates what `/metrics` actually serves — tests and CI pipe a live
//! scrape through [`lint`] and fail on any finding. Checked rules:
//!
//! * every sample's family has a `# TYPE` line, and it appears **before**
//!   the family's first sample;
//! * at most one `# TYPE` / `# HELP` line per family;
//! * metric names and label names match the Prometheus charset;
//! * sample values parse as finite floats; no duplicate series
//!   (identical name + label set);
//! * histogram families: per label-set, cumulative `_bucket` counts are
//!   monotone non-decreasing in `le`, a `le="+Inf"` bucket exists, and
//!   `_sum`/`_count` samples exist with `_count` equal to the `+Inf`
//!   bucket.

use std::collections::{BTreeMap, BTreeSet};

/// One parsed sample line.
struct Sample {
    name: String,
    /// Sorted `(label, value)` pairs.
    labels: Vec<(String, String)>,
    value: f64,
    line_no: usize,
}

/// Lint `text` (a full exposition document); returns human-readable
/// findings, empty when the document is clean.
pub fn lint(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut types: BTreeMap<String, (String, usize)> = BTreeMap::new(); // family -> (type, line)
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut first_sample_line: BTreeMap<String, usize> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let family = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").to_string();
            if family.is_empty() || kind.is_empty() {
                errors.push(format!("line {line_no}: malformed TYPE line"));
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(e) = types.entry(family.clone()) {
                e.insert((kind, line_no));
            } else {
                errors.push(format!("line {line_no}: duplicate TYPE for {family}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split(' ').next().unwrap_or("").to_string();
            if !helps.insert(family.clone()) {
                errors.push(format!("line {line_no}: duplicate HELP for {family}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        match parse_sample(line, line_no) {
            Ok(sample) => {
                first_sample_line
                    .entry(family_of(&sample.name, &types))
                    .or_insert(line_no);
                samples.push(sample);
            }
            Err(e) => errors.push(e),
        }
    }

    // Name charset + duplicate series.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for s in &samples {
        if !valid_metric_name(&s.name) {
            errors.push(format!(
                "line {}: invalid metric name {}",
                s.line_no, s.name
            ));
        }
        for (k, _) in &s.labels {
            if !valid_label_name(k) {
                errors.push(format!("line {}: invalid label name {k}", s.line_no));
            }
        }
        let key = format!("{}{:?}", s.name, s.labels);
        if !seen.insert(key) {
            errors.push(format!(
                "line {}: duplicate series {} {:?}",
                s.line_no, s.name, s.labels
            ));
        }
    }

    // TYPE before samples, for every family that has samples.
    for (family, first_line) in &first_sample_line {
        match types.get(family) {
            None => errors.push(format!(
                "family {family}: samples (first at line {first_line}) with no TYPE line"
            )),
            Some((_, type_line)) if type_line > first_line => errors.push(format!(
                "family {family}: TYPE at line {type_line} after first sample at line {first_line}"
            )),
            Some(_) => {}
        }
    }

    // Histogram shape checks.
    for (family, (kind, _)) in &types {
        if kind != "histogram" {
            continue;
        }
        check_histogram(family, &samples, &mut errors);
    }

    errors
}

/// Resolve a sample name to its family: histogram suffixes fold into the
/// declared histogram family when one exists.
fn family_of(name: &str, types: &BTreeMap<String, (String, usize)>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(prefix) = name.strip_suffix(suffix) {
            if types
                .get(prefix)
                .is_some_and(|(kind, _)| kind == "histogram" || kind == "summary")
            {
                return prefix.to_string();
            }
        }
    }
    name.to_string()
}

fn check_histogram(family: &str, samples: &[Sample], errors: &mut Vec<String>) {
    let bucket_name = format!("{family}_bucket");
    // Group buckets by the label set minus `le`.
    let mut groups: BTreeMap<String, Vec<(f64, u64, String)>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let le = match s.labels.iter().find(|(k, _)| k == "le") {
            Some((_, v)) => v.clone(),
            None => {
                errors.push(format!(
                    "line {}: {bucket_name} sample without le label",
                    s.line_no
                ));
                continue;
            }
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            match le.parse::<f64>() {
                Ok(b) => b,
                Err(_) => {
                    errors.push(format!("line {}: unparseable le=\"{le}\"", s.line_no));
                    continue;
                }
            }
        };
        let rest: Vec<_> = s.labels.iter().filter(|(k, _)| k != "le").collect();
        groups
            .entry(format!("{rest:?}"))
            .or_default()
            .push((bound, s.value as u64, le));
    }
    for (labels, mut buckets) in groups {
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are comparable"));
        let mut prev = 0u64;
        for (_, count, le) in &buckets {
            if *count < prev {
                errors.push(format!(
                    "{family}{labels}: bucket le=\"{le}\" count {count} below previous {prev} (not cumulative)"
                ));
            }
            prev = *count;
        }
        let inf = buckets.iter().find(|(b, _, _)| b.is_infinite());
        match inf {
            None => errors.push(format!("{family}{labels}: missing le=\"+Inf\" bucket")),
            Some((_, inf_count, _)) => {
                // _count for the same label set must equal the +Inf bucket.
                let count_sample = samples.iter().find(|s| {
                    s.name == format!("{family}_count")
                        && format!("{:?}", s.labels.iter().collect::<Vec<_>>()) == labels
                });
                match count_sample {
                    None => errors.push(format!("{family}{labels}: missing _count sample")),
                    Some(c) if c.value as u64 != *inf_count => errors.push(format!(
                        "{family}{labels}: _count {} != +Inf bucket {inf_count}",
                        c.value
                    )),
                    Some(_) => {}
                }
            }
        }
        let has_sum = samples.iter().any(|s| {
            s.name == format!("{family}_sum")
                && format!("{:?}", s.labels.iter().collect::<Vec<_>>()) == labels
        });
        if !has_sum {
            errors.push(format!("{family}{labels}: missing _sum sample"));
        }
    }
}

/// The `(label, value)` pairs of one sample line, sorted by label name
/// and unescaped the way [`lint`] reads them.
pub fn sample_labels(line: &str) -> Result<Vec<(String, String)>, String> {
    parse_sample(line, 1).map(|s| s.labels)
}

fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.rfind(' ') {
        Some(i) => (&line[..i], line[i + 1..].trim()),
        None => return Err(format!("line {line_no}: no value on sample line")),
    };
    let value = value_str
        .parse::<f64>()
        .map_err(|_| format!("line {line_no}: unparseable value {value_str}"))?;
    if !value.is_finite() {
        return Err(format!("line {line_no}: non-finite value {value_str}"));
    }
    let name_and_labels = name_and_labels.trim();
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].to_string();
            let rest = &name_and_labels[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
            (name, parse_labels(&rest[..close], line_no)?)
        }
    };
    let mut labels = labels;
    labels.sort();
    Ok(Sample {
        name,
        labels,
        value,
        line_no,
    })
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without ="))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("line {line_no}: unquoted label value"));
        }
        // Scan for the closing quote, honouring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, esc)) = chars.next() {
                        value.push(match esc {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: junk after label value: {rest}"));
        }
    }
    Ok(labels)
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}
