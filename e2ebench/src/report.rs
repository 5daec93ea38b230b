//! Result lines: metrics with their within-run spread, provenance, and the
//! final one-line JSON object.

use std::fmt::Write as _;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// One reported metric. `samples` holds the per-repetition values the
/// reported `value` summarises (empty for single measurements).
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The repetitions behind `value` (their median), if any.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single measurement.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of repeated measurements.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }
}

/// The median (mean of the middle pair for even counts; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What a run produced: counts for the final line, metrics, and free-form
/// context printed alongside.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Trials run (each pass of each trial counts once).
    pub attempted: u64,
    /// Trials that panicked, failed the routing check or diverged.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Extra context as `(key, JSON value)` pairs.
    pub context: Vec<(String, String)>,
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite number for JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The line printed before the result: provenance, context and each
/// metric's spread (min/median/max over its repetitions).
pub fn context_line(provenance: &[(String, String)], outcome: &Outcome) -> String {
    let object = |pairs: &[(String, String)]| {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let spread: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .filter(|m| !m.samples.is_empty())
        .map(|m| {
            let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let rel = if m.value != 0.0 {
                (max - min) / m.value.abs()
            } else {
                0.0
            };
            (
                m.name.to_string(),
                format!(
                    "{{\"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}, \"range_share\": {}}}",
                    m.samples.len(),
                    json_num(min),
                    json_num(m.value),
                    json_num(max),
                    json_num(rel)
                ),
            )
        })
        .collect();
    format!(
        "{{\"provenance\": {}, \"context\": {}, \"spread\": {}}}",
        object(provenance),
        object(&outcome.context),
        object(&spread)
    )
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Removes every `BGPSIM_*` variable from the environment so the engine
/// runs at its defaults; returns what was cleared as `NAME=value`.
pub fn clear_engine_env() -> Vec<String> {
    let cleared: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BGPSIM_"))
        .collect();
    for (k, _) in &cleared {
        std::env::remove_var(k);
    }
    cleared
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance of a result: source revision, toolchain, host and date.
pub fn provenance(threads: usize, cleared: &[String]) -> Vec<(String, String)> {
    // Only a repository rooted here describes this source tree; a checkout
    // nested inside some other repository must not borrow its revision.
    let rooted_here = command_output("git", &["rev-parse", "--show-toplevel"])
        .zip(std::env::current_dir().ok())
        .is_some_and(|(top, cwd)| std::fs::canonicalize(top).ok() == cwd.canonicalize().ok());
    let sha = rooted_here
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten();
    let dirty = sha
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"]))
        .map(|s| if s.is_empty() { "false" } else { "true" });
    let nproc = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let cleared: Vec<String> = cleared.iter().map(|c| json_str(c)).collect();
    vec![
        (
            "git_sha".into(),
            json_str(
                sha.as_deref()
                    .unwrap_or("unavailable (not a git checkout root)"),
            ),
        ),
        ("dirty".into(), dirty.unwrap_or("null").to_string()),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), json_str(env!("E2EBENCH_RUSTC"))),
        ("date_utc".into(), json_str(&utc_now())),
        ("threads".into(), threads.to_string()),
        ("cleared_env".into(), format!("[{}]", cleared.join(", "))),
    ]
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}
