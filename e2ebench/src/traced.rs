//! The traced run, in two passes.
//!
//! * **Timing pass.** The engine's trace sink stays off. Benchmark-side
//!   spans (name, start, end, parent) wrap each public call; a span's self
//!   time is its duration minus what its children cover.
//! * **Counting pass.** The engine's JSONL sink streams into a
//!   [`CountingWriter`] that tallies records by kind (memory stays flat),
//!   and the layer kernels run on each post-failure network. Its times
//!   include tracing, so only `trace.overhead_ratio` and the kernels'
//!   ns/op come from it.
//!
//! Both passes must reproduce the pinned `RunStats` of every trial, and
//! each trial's trace tally must agree with its `RunStats`.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bgpsim::experiment::{run_all_parallel_timed, ParallelReport};
use bgpsim::{MemoryFootprint, Network, RunStats, TraceSink, WarmStats};
use bgpsim_topology::region::FailureSpec;

use crate::kernels::{self, Arrival, OpTime};
use crate::pinned::{report_failures, Reference};
use crate::report::{json_num, json_str, Metric, Outcome};
use crate::workload::{Plan, Workload};

/// Arrival records kept for the queue replay kernel (16 B each).
const MAX_ARRIVALS: usize = 1 << 21;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Benchmark-side spans around public API calls.
#[derive(Debug)]
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the open span).
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span named `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + (s.end - s.start))
    }

    /// Self time (duration minus children) summed per span name, in
    /// first-seen order.
    fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, sum)) => *sum += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }
}

/// Trace records tallied by kind.
#[derive(Clone, Debug, Default)]
struct Counts {
    records: u64,
    received: u64,
    processed: u64,
    stale_deleted: u64,
    decisions: u64,
    full_rescans: u64,
    best_changes: u64,
    sent: u64,
    withdrawals_sent: u64,
    mrai_started: u64,
    mrai_expired: u64,
    level_shifts: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.records += o.records;
        self.received += o.received;
        self.processed += o.processed;
        self.stale_deleted += o.stale_deleted;
        self.decisions += o.decisions;
        self.full_rescans += o.full_rescans;
        self.best_changes += o.best_changes;
        self.sent += o.sent;
        self.withdrawals_sent += o.withdrawals_sent;
        self.mrai_started += o.mrai_started;
        self.mrai_expired += o.mrai_expired;
        self.level_shifts += o.level_shifts;
    }
}

#[derive(Debug, Default)]
struct Tally {
    counts: Counts,
    arrivals: Vec<Arrival>,
}

/// The value after `"key":` in a JSON fragment, up to the next `,` or `}`.
fn field<'a>(args: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = args.windows(key.len()).position(|w| w == key)? + key.len();
    let rest = &args[at..];
    let end = rest
        .iter()
        .position(|&b| b == b',' || b == b'}')
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The leading decimal digits of `v` as a number.
fn number(v: &[u8]) -> u64 {
    v.iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0, |n, &b| n * 10 + u64::from(b - b'0'))
}

/// Splits a record `{"seq":N,"time":N,"node":N,"event":{"Kind":{...}}}`
/// into its node, event kind and the kind's arguments, in one forward
/// scan of the header (the field order is the engine's `TraceEvent`).
fn split(line: &[u8]) -> Option<(u32, &[u8], &[u8])> {
    let node_at = line
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b':')
        .nth(2)?
        .0
        + 1;
    let rest = &line[node_at..];
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let body = rest[digits..].strip_prefix(b",\"event\":{\"")?;
    let kind_end = body.iter().position(|&b| b == b'"')?;
    let (kind, args) = body.split_at(kind_end);
    Some((number(rest) as u32, kind, args))
}

impl Tally {
    /// Counts one JSONL record.
    fn record(&mut self, line: &[u8]) {
        let c = &mut self.counts;
        c.records += 1;
        let Some((node, kind, args)) = split(line) else {
            return;
        };
        let flag = |key: &[u8]| field(args, key) == Some(b"true");
        let value = |key: &[u8]| field(args, key).map_or(0, number);
        match kind {
            b"Sent" => {
                c.sent += 1;
                if field(args, b"\"advertise\":") == Some(b"false") {
                    c.withdrawals_sent += 1;
                }
            }
            b"Received" => {
                c.received += 1;
                if self.arrivals.len() < MAX_ARRIVALS {
                    self.arrivals.push(Arrival::Received {
                        node,
                        from: value(b"\"from\":") as u32,
                        prefix: value(b"\"prefix\":") as u32,
                        advertise: flag(b"\"advertise\":"),
                    });
                }
            }
            b"Processed" => {
                c.processed += 1;
                if self.arrivals.len() < MAX_ARRIVALS {
                    self.arrivals.push(Arrival::Processed { node });
                }
            }
            b"StaleDeleted" => c.stale_deleted += value(b"\"count\":"),
            b"Decision" => {
                c.decisions += 1;
                if flag(b"\"full_rescan\":") {
                    c.full_rescans += 1;
                }
            }
            b"BestChanged" => c.best_changes += 1,
            b"MraiStarted" => c.mrai_started += 1,
            b"MraiExpired" => c.mrai_expired += 1,
            b"MraiLevel" => c.level_shifts += 1,
            _ => {}
        }
    }
}

/// A `Write` that tallies the JSONL trace stream line by line instead of
/// storing it. It owns its tally, so a record costs no lock, and hands it
/// to `done` when the sink drops it.
struct CountingWriter {
    tally: Tally,
    line: Vec<u8>,
    done: Arc<Mutex<Option<Tally>>>,
}

impl Write for CountingWriter {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let len = buf.len();
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&buf[..nl]);
            self.tally.record(&self.line);
            self.line.clear();
            buf = &buf[nl + 1..];
        }
        self.line.extend_from_slice(buf);
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for CountingWriter {
    fn drop(&mut self) {
        let tally = std::mem::take(&mut self.tally);
        *self.done.lock().expect("tally lock") = Some(tally);
    }
}

/// What the timing pass measured.
struct Timing {
    spans: Spans,
    /// Per-trial stats of the per-layer trials (and of the runner, for the
    /// sweep), checked against the pinned outputs.
    checked: Vec<(String, Vec<RunStats>)>,
    footprint: MemoryFootprint,
    batch: Option<ParallelReport>,
    removable: Removable,
}

/// Builds and converges the plan's networks inside spans.
fn converge_all(s: &mut Spans, plan: &Plan) -> Vec<Network> {
    let topo = s.time("topology.generate", |_| plan.generate_topology());
    (0..plan.schemes.len())
        .map(|i| {
            let mut net = s.time("network.build", |_| plan.build(topo.clone(), i));
            s.time("network.initial_convergence", |_| {
                net.run_initial_convergence()
            });
            net
        })
        .collect()
}

/// The larger of two footprints, field by field.
fn max_footprint(a: MemoryFootprint, b: MemoryFootprint) -> MemoryFootprint {
    MemoryFootprint {
        routes: a.routes.max(b.routes),
        rib_heap_bytes: a.rib_heap_bytes.max(b.rib_heap_bytes),
        max_node_rib_heap_bytes: a.max_node_rib_heap_bytes.max(b.max_node_rib_heap_bytes),
        config_arena_entries: a.config_arena_entries.max(b.config_arena_entries),
    }
}

fn timing_pass(plan: &Plan) -> Timing {
    let mut spans = Spans::new();
    let mut checked = Vec::new();
    let mut footprint = MemoryFootprint::default();
    let mut batch = None;
    let last = spans.time("workload", |s| {
        let nets = converge_all(s, plan);
        for net in &nets {
            footprint = max_footprint(footprint, net.memory_footprint());
        }
        if plan.workload == Workload::PaperSweep {
            let (aggregates, report) = s.time("experiment.batch", |_| {
                run_all_parallel_timed(&plan.experiments(), Some(plan.threads))
            });
            checked.push((
                "runner".to_string(),
                aggregates.iter().map(|a| a.runs[0]).collect(),
            ));
            batch = Some(report);
        }
        // The layer split of each trial: clone the converged network and
        // drive the failure through the public calls one by one.
        let mut last = None;
        let stats = plan
            .trials
            .iter()
            .map(|t| {
                let mut net = s.time("network.clone", |_| nets[t.net].clone());
                s.time("network.inject", |_| t.failure.inject(&mut net));
                let stats = s.time("network.reconverge", |_| net.run_to_quiescence());
                s.time("network.verify", |_| net.assert_routing_consistent());
                last = Some(net);
                stats
            })
            .collect();
        checked.push(("timing pass".to_string(), stats));
        last.expect("every workload has a trial")
    });
    let removable = removable_mechanisms(batch.as_ref(), &last);
    Timing {
        spans,
        checked,
        footprint,
        batch,
        removable,
    }
}

/// Measurements of mechanisms slated for removal (the runner's warm-start
/// cache, the sharded engine's phase timers, the FEL selector).
#[derive(Debug, Default)]
struct Removable {
    warm: WarmStats,
    context: Vec<(String, String)>,
}

/// Every read of a removable mechanism lives in this one block, so
/// deleting the mechanism deletes exactly this function and its metrics.
fn removable_mechanisms(batch: Option<&ParallelReport>, finished: &Network) -> Removable {
    Removable {
        warm: batch.and_then(|r| r.warm).unwrap_or_default(),
        context: vec![
            (
                "fel_kind".into(),
                json_str(&format!("{:?}", finished.fel_kind())),
            ),
            (
                "shard_epochs".into(),
                finished.shard_phase_timings().epochs.to_string(),
            ),
        ],
    }
}

/// What the counting pass tallied.
#[derive(Default)]
struct Counting {
    stats: Vec<RunStats>,
    /// Per trial, where the trace tally disagrees with `RunStats`.
    tally_errors: Vec<Vec<String>>,
    counts: Counts,
    events_initial: u64,
    reconverge_s: f64,
    select_best: OpTime,
    prepend: OpTime,
    queue: OpTime,
    kernels_s: f64,
}

impl Counting {
    fn add(&mut self, trial: Counting) {
        self.stats.extend(trial.stats);
        self.tally_errors.extend(trial.tally_errors);
        self.counts.add(&trial.counts);
        self.reconverge_s += trial.reconverge_s;
        self.select_best.add(trial.select_best);
        self.prepend.add(trial.prepend);
        self.queue.add(trial.queue);
        self.kernels_s += trial.kernels_s;
    }
}

/// Mismatches between a trial's trace tally and its `RunStats`: a writer
/// that dropped or misread records would skew every per-layer count.
fn tally_errors(c: &Counts, stats: &RunStats) -> Vec<String> {
    [
        ("stale_deleted", c.stale_deleted, stats.stale_deleted),
        ("decisions", c.decisions, stats.decision_runs),
        ("full_rescans", c.full_rescans, stats.full_rescans),
        ("sent", c.sent, stats.messages),
        ("processed", c.processed, stats.updates_processed),
    ]
    .into_iter()
    .filter(|(_, traced, run)| traced != run)
    .map(|(key, traced, run)| format!("trace tally {key}: traced {traced}, RunStats {run}"))
    .collect()
}

/// Re-converges one trial with the JSONL sink streaming into a counting
/// writer, then runs the layer kernels on the post-failure network.
fn count_trial(plan: &Plan, trial: usize, mut net: Network) -> Counting {
    let t = &plan.trials[trial];
    let done = Arc::new(Mutex::new(None));
    net.set_trace_sink(TraceSink::jsonl(Box::new(CountingWriter {
        tally: Tally::default(),
        line: Vec::new(),
        done: Arc::clone(&done),
    })));
    t.failure.inject(&mut net);
    let started = Instant::now();
    let stats = net.run_to_quiescence();
    let reconverge_s = started.elapsed().as_secs_f64();
    net.set_trace_sink(TraceSink::Off);
    let tally = done
        .lock()
        .expect("tally lock")
        .take()
        .expect("detaching the sink drops its writer");

    let started = Instant::now();
    let select_best = kernels::select_best_all(&net);
    let prepend = kernels::prepend_all(&net);
    let queue = kernels::queue_replay(
        &tally.arrivals,
        plan.schemes[t.net].queue,
        net.topology().num_routers(),
    );
    Counting {
        tally_errors: vec![tally_errors(&tally.counts, &stats)],
        stats: vec![stats],
        counts: tally.counts,
        events_initial: 0,
        reconverge_s,
        select_best,
        prepend,
        queue,
        kernels_s: started.elapsed().as_secs_f64(),
    }
}

/// Converges each network once, then counts every trial on a clone of
/// it, spread over the plan's thread count (the sweep's 18 traced trials
/// would take minutes serially).
fn counting_pass(plan: &Plan) -> Counting {
    let topo = plan.generate_topology();
    let mut out = Counting::default();
    let converged: Vec<Network> = (0..plan.schemes.len())
        .map(|i| {
            let mut net = plan.build(topo.clone(), i);
            // An empty failure before anything runs makes
            // `run_to_quiescence` report the initial convergence's events;
            // it schedules nothing and draws no randomness.
            net.inject_failure(&FailureSpec::Explicit(Vec::new()));
            net.run_initial_convergence();
            out.events_initial += net.run_to_quiescence().events;
            net
        })
        .collect();
    // `Network` is `Send` but not `Sync`: clone up front, move to workers.
    let jobs = Mutex::new(
        plan.trials
            .iter()
            .enumerate()
            .map(|(i, t)| (i, converged[t.net].clone()))
            .collect::<Vec<_>>()
            .into_iter(),
    );
    drop(converged);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..plan.threads {
            s.spawn(|| loop {
                let Some((i, net)) = jobs.lock().expect("job lock").next() else {
                    break;
                };
                let counted = count_trial(plan, i, net);
                done.lock().expect("result lock").push((i, counted));
            });
        }
    });
    let mut done = done.into_inner().expect("result lock");
    done.sort_by_key(|(i, _)| *i);
    for (_, trial) in done {
        out.add(trial);
    }
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn checks<'a>(
    reference: &'a Reference,
    stats: &'a [RunStats],
) -> impl Iterator<Item = Vec<String>> + 'a {
    stats.iter().enumerate().map(|(i, s)| reference.check(i, s))
}

/// Runs both traced passes and reports the per-layer metrics.
pub fn run(plan: &Plan, reference: &Reference) -> Outcome {
    let started = Instant::now();
    let trials = plan.trials.len() as u64;
    let mut outcome = Outcome::default();

    let timing = catch_unwind(AssertUnwindSafe(|| timing_pass(plan)));
    let counting = catch_unwind(AssertUnwindSafe(|| counting_pass(plan)));
    let (timing, counting) = match (timing, counting) {
        (Ok(t), Ok(c)) => (t, c),
        _ => {
            eprintln!("FAILED {}: a traced pass panicked", plan.workload.name());
            outcome.attempted = 2 * trials;
            outcome.failed = 2 * trials;
            return outcome;
        }
    };
    for (label, stats) in &timing.checked {
        outcome.attempted += trials;
        outcome.failed += report_failures(plan, label, checks(reference, stats));
    }
    outcome.attempted += trials;
    let counted = checks(reference, &counting.stats)
        .zip(&counting.tally_errors)
        .map(|(mut errors, tally)| {
            errors.extend_from_slice(tally);
            errors
        });
    outcome.failed += report_failures(plan, "counting pass", counted);
    let traced_s = started.elapsed().as_secs_f64();

    let sp = &timing.spans;
    let c = &counting.counts;
    let events_failure: u64 = counting.stats.iter().map(|s| s.events).sum();
    let peak_queue = counting
        .stats
        .iter()
        .map(|s| s.peak_queue)
        .max()
        .unwrap_or(0);
    let reconverge_s = sp.total("network.reconverge");
    let (busy, slowest, speedup) = match &timing.batch {
        Some(r) => {
            let busy: f64 = r.timings.iter().map(|t| t.wall_secs).sum();
            let slowest = r.timings.iter().map(|t| t.wall_secs).fold(0.0, f64::max);
            (busy, slowest, ratio(busy, sp.total("experiment.batch")))
        }
        None => (0.0, 0.0, 0.0),
    };
    let harness_self = sp
        .self_times()
        .iter()
        .find(|(n, _)| *n == "workload")
        .map_or(0.0, |(_, t)| *t);
    let warm = &timing.removable.warm;
    let fp = &timing.footprint;
    let f = |v: u64| v as f64;
    outcome.metrics = vec![
        Metric::one("experiment.trial_busy_s", "s", busy),
        Metric::one("experiment.parallel_speedup", "x", speedup),
        Metric::one("experiment.slowest_trial_s", "s", slowest),
        Metric::one("warm.capture_s", "s", warm.build_wall_secs),
        Metric::one("warm.fork_s", "s", warm.fork_wall_secs),
        Metric::one(
            "warm.forks_per_capture",
            "count",
            ratio(f(warm.forks), f(warm.builds)),
        ),
        Metric::one("network.build_s", "s", sp.total("network.build")),
        Metric::one(
            "network.initial_convergence_s",
            "s",
            sp.total("network.initial_convergence"),
        ),
        Metric::one("network.inject_s", "s", sp.total("network.inject")),
        Metric::one("network.reconverge_s", "s", reconverge_s),
        Metric::one("network.verify_s", "s", sp.total("network.verify")),
        Metric::one("topology.generate_s", "s", sp.total("topology.generate")),
        Metric::one("des.events_initial", "count", f(counting.events_initial)),
        Metric::one("des.events_failure", "count", f(events_failure)),
        Metric::one(
            "des.ns_per_event",
            "ns",
            ratio(reconverge_s * 1e9, f(events_failure)),
        ),
        Metric::one("queue.received", "count", f(c.received)),
        Metric::one("queue.processed", "count", f(c.processed)),
        Metric::one("queue.stale_deleted", "count", f(c.stale_deleted)),
        Metric::one(
            "queue.processed_ratio",
            "ratio",
            ratio(f(c.processed), f(c.received)),
        ),
        Metric::one("queue.peak", "count", peak_queue as f64),
        Metric::one("queue.push_pop_ns", "ns", counting.queue.ns_per_op()),
        Metric::one("queue.push_pop_ops", "count", f(counting.queue.ops)),
        Metric::one("decision.runs", "count", f(c.decisions)),
        Metric::one(
            "decision.full_rescan_ratio",
            "ratio",
            ratio(f(c.full_rescans), f(c.decisions)),
        ),
        Metric::one(
            "decision.best_change_ratio",
            "ratio",
            ratio(f(c.best_changes), f(c.decisions)),
        ),
        Metric::one(
            "decision.select_best_ns",
            "ns",
            counting.select_best.ns_per_op(),
        ),
        Metric::one(
            "decision.select_best_ops",
            "count",
            f(counting.select_best.ops),
        ),
        Metric::one("rib.routes", "count", fp.routes as f64),
        Metric::one("rib.bytes_per_route", "B", fp.bytes_per_route()),
        Metric::one("rib.max_node_bytes", "B", fp.max_node_rib_heap_bytes as f64),
        Metric::one("msg.sent", "count", f(c.sent)),
        Metric::one(
            "msg.withdrawal_share",
            "ratio",
            ratio(f(c.withdrawals_sent), f(c.sent)),
        ),
        Metric::one("path.prepend_ns", "ns", counting.prepend.ns_per_op()),
        Metric::one("path.prepend_ops", "count", f(counting.prepend.ops)),
        Metric::one("mrai.started", "count", f(c.mrai_started)),
        Metric::one("mrai.expired", "count", f(c.mrai_expired)),
        Metric::one("dynmrai.level_shifts", "count", f(c.level_shifts)),
        Metric::one("trace.events", "count", f(c.records)),
        Metric::one(
            "trace.overhead_ratio",
            "x",
            ratio(counting.reconverge_s, reconverge_s),
        ),
        Metric::one("bench.harness_self_s", "s", harness_self),
        Metric::one(
            "kernels.share",
            "ratio",
            ratio(counting.kernels_s, traced_s),
        ),
    ];
    let self_times: Vec<String> = sp
        .self_times()
        .iter()
        .map(|(n, t)| format!("{}: {}", json_str(n), json_num(*t)))
        .collect();
    outcome.context = vec![
        ("traced_run_s".into(), json_num(traced_s)),
        (
            "span_self_s".into(),
            format!("{{{}}}", self_times.join(", ")),
        ),
        (
            "queue_replay_arrivals_capped".into(),
            (c.received + c.processed > MAX_ARRIVALS as u64).to_string(),
        ),
    ];
    outcome.context.extend(timing.removable.context);
    outcome
}
