//! Criterion benchmarks.
//!
//! Two layers:
//!
//! * **micro** — throughput of the substrates: the event queue, the
//!   decision process, the three queue disciplines, topology generation,
//!   and one full failure run per scheme.
//! * **figures** — every paper figure regenerated at smoke scale (30
//!   nodes, 1 trial). These document the relative cost of each experiment;
//!   the full-fidelity tables come from the `figNN` binaries
//!   (`cargo run --release -p bgpsim-bench --bin fig01`, …).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bgpsim::experiment::{Experiment, TopologySpec};
use bgpsim::figures::{self, FigOpts};
use bgpsim::scheme::Scheme;
use bgpsim_bgp::decision::select_best;
use bgpsim_bgp::queue::{InputQueue, QueueDiscipline, WorkItem};
use bgpsim_bgp::rib::{AdjRibIn, RouteEntry};
use bgpsim_bgp::{AsPath, Prefix, UpdateMsg};
use bgpsim_des::{Scheduler, SimTime};
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::{AsId, RouterId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("des/heap schedule+pop 10k events", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            for i in 0..10_000u64 {
                s.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = s.next() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_decision(c: &mut Criterion) {
    let mut rib = AdjRibIn::new();
    let p = Prefix::new(0);
    for peer in 0..14u32 {
        let hops: Vec<AsId> = (0..(peer % 5 + 1)).map(|h| AsId::new(100 + h)).collect();
        rib.insert(
            p,
            RouterId::new(peer),
            RouteEntry {
                path: AsPath::from_hops(hops),
                ibgp: false,
                rank: 0,
            },
        );
    }
    c.bench_function("bgp/decision 14 candidates", |b| {
        b.iter(|| black_box(select_best(black_box(p), black_box(&rib))))
    });
}

fn filled_queue(discipline: QueueDiscipline) -> InputQueue {
    let mut q = InputQueue::new(discipline);
    for i in 0..1000u32 {
        q.push(WorkItem::Update {
            from: RouterId::new(i % 8),
            msg: UpdateMsg::advertise(Prefix::new(i % 50), AsPath::from_hops([AsId::new(i % 16)])),
        });
    }
    q
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("bgp/queue drain 1000 items");
    for (name, d) in [
        ("fifo", QueueDiscipline::Fifo),
        ("batched", QueueDiscipline::Batched),
        ("tcp-batch", QueueDiscipline::TcpBatch { buffer: 32 }),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || filled_queue(d),
                |mut q| {
                    let mut n = 0usize;
                    loop {
                        let batch = q.pop_batch();
                        if batch.is_empty() {
                            break;
                        }
                        n += batch.len();
                    }
                    black_box(n)
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology/120-node 70-30 generation", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SmallRng::seed_from_u64(seed);
            black_box(skewed_topology(120, &SkewedSpec::seventy_thirty(), &mut rng).unwrap())
        })
    });
    c.bench_function("topology/120-node hierarchical generation", |b| {
        use bgpsim_topology::generators::{hierarchical, HierarchicalParams};
        let params = HierarchicalParams::three_tier_120();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SmallRng::seed_from_u64(seed);
            black_box(hierarchical(&params, &mut rng).unwrap())
        })
    });
}

fn run_once(scheme: Scheme) -> f64 {
    Experiment {
        topology: TopologySpec::seventy_thirty(40),
        scheme,
        failure: FailureSpec::CenterFraction(0.10),
        trials: 1,
        base_seed: 99,
    }
    .run_trial(0)
    .convergence_delay
    .as_secs_f64()
}

fn bench_full_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("run/40-node 10% failure");
    g.sample_size(10);
    for (name, scheme) in [
        ("mrai-0.5", Scheme::constant_mrai(0.5)),
        ("mrai-2.25", Scheme::constant_mrai(2.25)),
        ("dynamic", Scheme::dynamic_default()),
        ("batching", Scheme::batching(0.5)),
        ("batching+dynamic", Scheme::batching_plus_dynamic()),
        ("tcp-batch", Scheme::tcp_batch(0.5, 32)),
        ("gao-rexford", Scheme::constant_mrai(0.5).with_policy()),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(run_once(scheme.clone()))));
    }
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures-smoke");
    g.sample_size(10);
    let opts = FigOpts {
        nodes: 30,
        trials: 1,
        base_seed: 5,
        threads: None,
    };
    for (id, figure) in figures::all_figures() {
        g.bench_function(id, |b| b.iter(|| black_box(figure(opts))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_decision,
    bench_queues,
    bench_topology,
    bench_full_runs,
    bench_figures
);
criterion_main!(benches);
