//! The correctness gate: each trial's deterministic outputs, pinned in
//! `pinned.txt` and compared field by field.
//!
//! A line reads `<scale> <workload> <variant> <trial> key=value ...`.
//! `--record` prints the lines for one run instead of checking them.

use bgpsim::RunStats;

use crate::workload::Plan;

/// The pinned reference compiled into the benchmark.
pub const DEFAULT: &str = include_str!("../pinned.txt");

/// The deterministic outputs of one trial, by name.
pub fn fields(stats: &RunStats) -> [(&'static str, u64); 7] {
    [
        ("delay_ns", stats.convergence_delay.as_nanos()),
        ("messages", stats.messages),
        ("events", stats.events),
        ("decisions", stats.decision_runs),
        ("full_rescans", stats.full_rescans),
        ("stale_deleted", stats.stale_deleted),
        ("peak_queue", stats.peak_queue as u64),
    ]
}

/// The pinned line for trial `trial` of `plan`.
pub fn line(plan: &Plan, trial: usize, stats: &RunStats) -> String {
    let mut out = format!(
        "{} {} {} {}",
        plan.scale.name(),
        plan.workload.name(),
        plan.variant,
        trial
    );
    for (key, value) in fields(stats) {
        out.push_str(&format!(" {key}={value}"));
    }
    out
}

/// The pinned reference for one plan: per trial, the expected fields.
#[derive(Clone, Debug)]
pub struct Reference {
    trials: Vec<Option<Vec<(String, u64)>>>,
}

impl Reference {
    /// Extracts `plan`'s entries from a pinned file's text.
    pub fn parse(text: &str, plan: &Plan) -> Result<Reference, String> {
        let mut trials = vec![None; plan.trials.len()];
        for (no, raw) in text.lines().enumerate() {
            let raw = raw.trim();
            if raw.is_empty() || raw.starts_with('#') {
                continue;
            }
            let mut words = raw.split_whitespace();
            let head: Vec<&str> = words.by_ref().take(4).collect();
            if head.len() < 4 {
                return Err(format!("pinned line {}: too few fields", no + 1));
            }
            if head[0] != plan.scale.name()
                || head[1] != plan.workload.name()
                || head[2] != plan.variant.to_string()
            {
                continue;
            }
            let trial: usize = head[3]
                .parse()
                .map_err(|e| format!("pinned line {}: trial: {e}", no + 1))?;
            let mut expected = Vec::new();
            for pair in words {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("pinned line {}: bad field {pair}", no + 1))?;
                let value = value
                    .parse()
                    .map_err(|e| format!("pinned line {}: {key}: {e}", no + 1))?;
                expected.push((key.to_string(), value));
            }
            let slot = trials
                .get_mut(trial)
                .ok_or_else(|| format!("pinned line {}: no trial {trial}", no + 1))?;
            *slot = Some(expected);
        }
        Ok(Reference { trials })
    }

    /// Mismatches of `stats` (trial `trial`) against the reference; empty
    /// when every pinned field matches. A trial with no pinned entry is a
    /// mismatch: an unpinned run cannot be called correct.
    pub fn check(&self, trial: usize, stats: &RunStats) -> Vec<String> {
        let Some(Some(expected)) = self.trials.get(trial) else {
            return vec!["no pinned outputs".to_string()];
        };
        let actual = fields(stats);
        let mut errors = Vec::new();
        for (key, want) in expected {
            match actual.iter().find(|(k, _)| k == key) {
                Some(&(_, got)) if got == *want => {}
                Some(&(_, got)) => errors.push(format!("{key}: pinned {want}, got {got}")),
                None => errors.push(format!("{key}: unknown pinned field")),
            }
        }
        for (key, _) in actual {
            if !expected.iter().any(|(k, _)| k == key) {
                errors.push(format!("{key}: not pinned"));
            }
        }
        errors
    }
}

/// Prints every trial whose error list is non-empty, by workload, trial
/// and `label`; returns how many trials failed.
pub fn report_failures(
    plan: &Plan,
    label: &str,
    per_trial: impl IntoIterator<Item = Vec<String>>,
) -> u64 {
    let mut failed = 0;
    for (i, errors) in per_trial.into_iter().enumerate() {
        if !errors.is_empty() {
            failed += 1;
            eprintln!(
                "FAILED {} trial {i} ({label}): {}",
                plan.workload.name(),
                errors.join("; ")
            );
        }
    }
    failed
}
