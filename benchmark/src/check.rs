//! The correctness gate. Every answer is compared with an in-process
//! reference computed before timing (`ServingModel::recover` on the same
//! artifact): equal segments and equal `f32` rate *bits* — the repo's own
//! HTTP ≡ in-process contract — plus the structural rules of each route.

use crate::adapter::{self, RecoveredPath, StreamEvent};
use crate::load::Answer;

/// What the checker needs to know about one corpus trip.
pub struct Expected {
    pub reference: RecoveredPath,
    /// Road segments |V| of the trip's city.
    pub segments: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Correct; carries the server-reported batch size when there is one.
    Correct { batch_size: Option<usize> },
    /// The program answered, and the answer is wrong.
    Wrong(String),
    /// No usable answer: refused, errored, or the transport failed.
    Failed(String),
}

fn same_bits(a: &[(usize, f32)], b: &[(usize, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn check_path(path: &[(usize, f32)], want: &Expected) -> Result<(), String> {
    if path.len() != want.reference.len() {
        return Err(format!(
            "{} points, expected target_len {}",
            path.len(),
            want.reference.len()
        ));
    }
    if let Some(&(seg, _)) = path.iter().find(|p| p.0 >= want.segments) {
        return Err(format!("segment id {seg} ≥ |V| = {}", want.segments));
    }
    if let Some(&(_, rate)) = path.iter().find(|p| !(0.0..=1.0).contains(&p.1)) {
        return Err(format!("rate {rate} outside [0, 1]"));
    }
    if !same_bits(path, &want.reference) {
        let at = path
            .iter()
            .zip(&want.reference)
            .position(|(x, y)| x.0 != y.0 || x.1.to_bits() != y.1.to_bits());
        return Err(format!("differs from the reference at step {at:?}"));
    }
    Ok(())
}

fn check_stream(body: &[u8], ends: &[usize], want: &Expected) -> Verdict {
    let mut steps: Vec<(usize, f32)> = Vec::new();
    let mut start = 0;
    for (k, &end) in ends.iter().enumerate() {
        let Ok(line) = std::str::from_utf8(&body[start..end]) else {
            return Verdict::Wrong(format!("event {k} is not UTF-8"));
        };
        start = end;
        let last = k + 1 == ends.len();
        match adapter::parse_stream_event(line.trim_end()) {
            Err(e) => return Verdict::Wrong(format!("event {k}: {e}")),
            Ok(StreamEvent::Step {
                step,
                segment,
                rate,
            }) => {
                if last {
                    return Verdict::Wrong("stream ended without a terminal event".into());
                }
                // Strictly increasing from 0 with no gaps.
                if step != steps.len() {
                    return Verdict::Wrong(format!(
                        "step index {step} where {} was due",
                        steps.len()
                    ));
                }
                steps.push((segment, rate));
            }
            Ok(terminal) if !last => {
                return Verdict::Wrong(format!("terminal event {terminal:?} before the end"));
            }
            Ok(StreamEvent::Error { code, message }) => {
                return Verdict::Failed(format!("stream error {code}: {message}"));
            }
            Ok(StreamEvent::Summary(summary)) => {
                if let Err(e) = check_path(&summary.path, want) {
                    return Verdict::Wrong(format!("summary {e}"));
                }
                if !same_bits(&steps, &summary.path) {
                    return Verdict::Wrong("streamed steps differ from the summary".into());
                }
                return Verdict::Correct {
                    batch_size: Some(summary.batch_size),
                };
            }
        }
    }
    Verdict::Wrong("empty stream".into())
}

pub fn check(answer: &Answer, want: &Expected) -> Verdict {
    match answer {
        Answer::Failed(why) => Verdict::Failed(why.clone()),
        Answer::Judged(verdict) => verdict.clone(),
        Answer::Direct(f) => match &f.error {
            Some(e) => Verdict::Failed(e.clone()),
            None => match check_path(&f.path, want) {
                Ok(()) => Verdict::Correct {
                    batch_size: Some(f.batch_size),
                },
                Err(e) => Verdict::Wrong(e),
            },
        },
        Answer::Whole { status, body } | Answer::Stream { status, body, .. } if *status != 200 => {
            Verdict::Failed(format!(
                "HTTP {status}: {}",
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ))
        }
        Answer::Whole { body, .. } => {
            let parsed = std::str::from_utf8(body)
                .map_err(|e| e.to_string())
                .and_then(adapter::parse_response);
            match parsed {
                Err(e) => Verdict::Wrong(format!("unparseable body: {e}")),
                Ok(a) => match check_path(&a.path, want) {
                    Ok(()) => Verdict::Correct {
                        batch_size: Some(a.batch_size),
                    },
                    Err(e) => Verdict::Wrong(e),
                },
            }
        }
        Answer::Stream { body, ends, .. } => check_stream(body, ends, want),
    }
}

// ----- golden digests ---------------------------------------------------------

/// FNV-1a over a reference answer's segments and rate bits.
pub fn digest(path: &[(usize, f32)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(seg, rate) in path {
        eat(&(seg as u64).to_le_bytes());
        eat(&rate.to_bits().to_le_bytes());
    }
    h
}

/// A golden file: one hex digest per corpus trip, `#` comment lines.
pub fn render_golden<'a>(
    header: &str,
    references: impl IntoIterator<Item = &'a RecoveredPath>,
) -> String {
    let mut out = format!("# {header}\n");
    for r in references {
        out.push_str(&format!("{:016x}\n", digest(r)));
    }
    out
}

/// Share of the corpus whose reference digest equals the committed one.
/// Not gating: a change of arithmetic order (or of kernel backend) moves
/// it, and that is exactly what it is there to make visible.
pub fn golden_agreement<'a>(
    golden: &str,
    references: impl IntoIterator<Item = &'a RecoveredPath>,
) -> f64 {
    let references: Vec<&RecoveredPath> = references.into_iter().collect();
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    if want.len() != references.len() {
        return 0.0;
    }
    let same = want
        .iter()
        .zip(&references)
        .filter(|(w, r)| **w == format!("{:016x}", digest(r)))
        .count();
    same as f64 / references.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Finished;

    fn want() -> Expected {
        Expected {
            reference: vec![(3, 0.25), (4, 0.5), (4, 0.75)],
            segments: 10,
        }
    }

    fn direct(path: Vec<(usize, f32)>) -> Answer {
        Answer::Direct(Finished {
            path,
            error: None,
            batch_size: 2,
            latency_s: 0.0,
            queue_wait_s: 0.0,
            compute_s: 0.0,
        })
    }

    #[test]
    fn answers_must_equal_the_reference_bit_for_bit() {
        let w = want();
        assert_eq!(
            check(&direct(w.reference.clone()), &w),
            Verdict::Correct {
                batch_size: Some(2)
            }
        );
        let one_ulp = f32::from_bits(0.5f32.to_bits() + 1);
        assert!(matches!(
            check(&direct(vec![(3, 0.25), (4, one_ulp), (4, 0.75)]), &w),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(&direct(vec![(3, 0.25)]), &w),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(&direct(vec![(3, 0.25), (11, 0.5), (4, 0.75)]), &w),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(&direct(vec![(3, 0.25), (4, 1.5), (4, 0.75)]), &w),
            Verdict::Wrong(_)
        ));
        let refused = Answer::Whole {
            status: 429,
            body: b"{}".to_vec(),
        };
        assert!(matches!(check(&refused, &w), Verdict::Failed(_)));
    }

    fn stream(lines: &[&str]) -> Answer {
        let mut body = Vec::new();
        let mut ends = Vec::new();
        for l in lines {
            body.extend_from_slice(l.as_bytes());
            body.push(b'\n');
            ends.push(body.len());
        }
        Answer::Stream {
            status: 200,
            body,
            ends,
        }
    }

    const STEP0: &str =
        r#"{"event":"step","id":1,"step":0,"segment":3,"rate":0.25,"logprob":-0.1}"#;
    const STEP1: &str = r#"{"event":"step","id":1,"step":1,"segment":4,"rate":0.5,"logprob":-0.1}"#;
    const STEP2: &str =
        r#"{"event":"step","id":1,"step":2,"segment":4,"rate":0.75,"logprob":-0.1}"#;
    const SUMMARY: &str = r#"{"event":"summary","id":1,"segments":[3,4,4],"rates":[0.25,0.5,0.75],"batch_size":1,"latency_ms":2.5}"#;

    #[test]
    fn streams_need_ordered_steps_and_exactly_one_terminal_event() {
        let w = want();
        assert_eq!(
            check(&stream(&[STEP0, STEP1, STEP2, SUMMARY]), &w),
            Verdict::Correct {
                batch_size: Some(1)
            }
        );
        // A skipped, repeated or out-of-order step index.
        assert!(matches!(
            check(&stream(&[STEP0, STEP2, SUMMARY]), &w),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(&stream(&[STEP0, STEP0, STEP1, STEP2, SUMMARY]), &w),
            Verdict::Wrong(_)
        ));
        // No terminal event, or two of them.
        assert!(matches!(
            check(&stream(&[STEP0, STEP1, STEP2]), &w),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(&stream(&[STEP0, STEP1, STEP2, SUMMARY, SUMMARY]), &w),
            Verdict::Wrong(_)
        ));
        // Steps that disagree with the summary.
        assert!(matches!(
            check(&stream(&[STEP0, STEP1, SUMMARY]), &w),
            Verdict::Wrong(_)
        ));
        let err = r#"{"event":"error","error":"deadline","code":503,"timed_out":true}"#;
        assert!(matches!(
            check(&stream(&[STEP0, err]), &w),
            Verdict::Failed(_)
        ));
    }

    #[test]
    fn golden_agreement_counts_matching_digests() {
        let refs = vec![
            vec![(1, 0.5f32)],
            vec![(2, 0.25)],
            vec![(3, 0.125)],
            vec![(4, 1.0)],
        ];
        let golden = render_golden("test", &refs);
        assert_eq!(golden_agreement(&golden, &refs), 1.0);
        let mut moved = refs.clone();
        moved[2][0].1 = f32::from_bits(0.125f32.to_bits() + 1);
        assert_eq!(golden_agreement(&golden, &moved), 0.75);
        assert_eq!(
            golden_agreement(&golden, &refs[..3]),
            0.0,
            "length mismatch"
        );
    }
}
