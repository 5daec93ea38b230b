//! End-to-end and per-layer benchmark for bgpsim.
//!
//! ```text
//! e2ebench --workload <paper_sweep|fulltable_burst|largescale_failure>
//!          --seed <n> --seconds <s> --trace <0|1>
//!          [--scale full|small] [--record]
//! ```
//!
//! With `--trace 0` the workload is repeated untraced for `--seconds` and
//! the end-to-end metrics are medians over the repetitions. With
//! `--trace 1` one timing pass and one counting pass run instead and the
//! per-layer metrics are printed. The last stdout line is the result
//! object; the line before it carries provenance and each metric's
//! within-run spread. See README.md in this directory.

mod kernels;
mod pinned;
mod report;
mod traced;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use pinned::Reference;
use report::{Metric, Outcome};
use workload::{run_pass, Pass, Plan, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    _ => return Err("--scale takes full or small".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        scale,
        record,
    })
}

/// Checks one pass against the reference; prints and counts failed trials.
fn check_pass(plan: &Plan, reference: &Reference, pass: &Pass, label: &str) -> u64 {
    let per_trial = plan
        .trials
        .iter()
        .zip(&pass.stats)
        .enumerate()
        .map(|(i, (trial, stats))| {
            let mut errors = reference.check(i, stats);
            if pass.initial[trial.net] != stats.initial_convergence {
                errors.push(format!(
                    "initial convergence: up-front network {:?}, trial {:?}",
                    pass.initial[trial.net], stats.initial_convergence
                ));
            }
            errors
        });
    pinned::report_failures(plan, label, per_trial)
}

/// Repeats untraced passes for `seconds` and reports end-to-end medians.
fn run_e2e(plan: &Plan, reference: &Reference, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let trials = plan.trials.len() as u64;
        outcome.attempted += trials;
        match catch_unwind(AssertUnwindSafe(|| run_pass(plan))) {
            Ok(pass) => {
                let label = format!("repetition {}", passes.len());
                outcome.failed += check_pass(plan, reference, &pass, &label);
                passes.push(pass);
                if passes.len() == 1 {
                    // The first pass's high-water mark: later passes only
                    // add allocator retention, which varies with their count.
                    peak_rss_mb = report::peak_rss_mb().unwrap_or(0.0);
                }
            }
            Err(_) => {
                outcome.failed += trials;
                eprintln!(
                    "FAILED {} all {trials} trial(s): pass panicked",
                    plan.workload.name()
                );
                break;
            }
        }
        // Start another repetition only if a typical one still fits.
        let typical = report::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if started.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    let column = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    outcome.metrics = vec![
        Metric::median_of("wall_s", "s", column(|p| p.wall_s)),
        Metric::median_of("setup_s", "s", column(|p| p.setup_s)),
        Metric::median_of("reconverge_s", "s", column(|p| p.reconverge_s)),
        Metric::median_of(
            "events_per_s",
            "1/s",
            column(|p| p.events() as f64 / p.reconverge_s),
        ),
        Metric::one("peak_rss_mb", "MB", peak_rss_mb),
    ];
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.context = vec![
        ("repetitions".into(), passes.len().to_string()),
        ("failed_frac".into(), report::json_num(failed_frac)),
        (
            "events_after_failure".into(),
            passes.first().map_or(0, Pass::events).to_string(),
        ),
    ];
    outcome
}

fn main() -> ExitCode {
    let cleared = report::clear_engine_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed N --seconds S --trace 0|1 \
                 [--scale full|small] [--record]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.scale, args.seed);

    if args.record {
        let pass = run_pass(&plan);
        for (i, stats) in pass.stats.iter().enumerate() {
            println!("{}", pinned::line(&plan, i, stats));
        }
        return ExitCode::SUCCESS;
    }

    let reference = match Reference::parse(pinned::DEFAULT, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut outcome = if args.trace {
        traced::run(&plan, &reference)
    } else {
        run_e2e(&plan, &reference, args.seconds)
    };
    outcome.context.insert(
        0,
        ("workload".into(), report::json_str(plan.workload.name())),
    );
    outcome
        .context
        .insert(1, ("base_seed".into(), plan.base_seed.to_string()));
    let provenance = report::provenance(plan.threads, &cleared);
    println!("{}", report::context_line(&provenance, &outcome));
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The built-in reference for `plan` with trial 0's pinned message
    /// count off by one.
    fn perturbed(plan: &Plan) -> Reference {
        let target = format!(
            "{} {} {} 0 ",
            plan.scale.name(),
            plan.workload.name(),
            plan.variant
        );
        let text: String = pinned::DEFAULT
            .lines()
            .map(|line| match line.strip_prefix(&target) {
                Some(fields) => {
                    let fields: Vec<String> = fields
                        .split_whitespace()
                        .map(|f| match f.strip_prefix("messages=") {
                            Some(v) => format!("messages={}", v.parse::<u64>().unwrap() + 1),
                            None => f.to_string(),
                        })
                        .collect();
                    format!("{target}{}\n", fields.join(" "))
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert_ne!(text, pinned::DEFAULT, "trial 0 is pinned");
        Reference::parse(&text, plan).expect("perturbed pins parse")
    }

    #[test]
    fn a_perturbed_pin_is_a_failed_trial() {
        let plan = Plan::new(Workload::FulltableBurst, Scale::Small, 1);
        let reference = perturbed(&plan);

        let pass = run_pass(&plan);
        assert_eq!(check_pass(&plan, &reference, &pass, "test"), 1);

        // Both traced passes check trial 0 against the same pin.
        let traced = traced::run(&plan, &reference);
        assert_eq!(traced.failed, 2);
    }
}
