//! Property tests for the tracing layer (`bgpsim::trace`).
//!
//! Two contracts, checked together over random topologies, seeds,
//! failure fractions and schemes:
//!
//! 1. **Tracing is invisible.** Attaching a `TraceSink::Memory` must not
//!    perturb the simulation: `RunStats` is field-identical to the same
//!    run with `TraceSink::Off`. The sink only observes; it never feeds
//!    back into event timing or ordering.
//! 2. **Traces are deterministic.** Two traced runs of the same
//!    simulation serialize to byte-identical JSONL: every event, every
//!    field, every sequence number.

use bgpsim::metrics::RunStats;
use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::{to_jsonl, TraceEvent, TraceSink};
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::Topology;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn schemes() -> [Scheme; 3] {
    [
        Scheme::constant_mrai(0.5),
        Scheme::batching(0.5),
        Scheme::dynamic_default(),
    ]
}

fn topo(seed: u64, nodes: usize) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
}

/// Converges, injects the failure, then runs the re-convergence phase,
/// traced into memory when `traced` (the sink stays Off otherwise).
fn run(
    scheme: &Scheme,
    seed: u64,
    nodes: usize,
    fraction: f64,
    traced: bool,
) -> (RunStats, Vec<TraceEvent>) {
    let cfg = SimConfig::from_scheme(scheme, seed);
    let mut net = Network::new(topo(seed, nodes), cfg);
    net.run_initial_convergence();
    net.inject_failure(&FailureSpec::CenterFraction(fraction));
    if traced {
        net.set_trace_sink(TraceSink::memory(1 << 22));
    }
    let stats = net.run_to_quiescence();
    (stats, net.take_trace_events())
}

proptest! {
    // Each case runs 3 full simulations; keep the count low and the
    // networks small.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn tracing_is_invisible_and_deterministic(
        nodes in 15usize..30,
        seed in 0u64..10_000,
        fraction_idx in 0usize..3,
        scheme_idx in 0usize..3,
    ) {
        let fraction = [0.05, 0.10, 0.20][fraction_idx];
        let scheme = &schemes()[scheme_idx];

        // Contract 1: Off vs Memory — field-identical RunStats.
        let (stats_off, no_events) = run(scheme, seed, nodes, fraction, false);
        let (stats_mem, events) = run(scheme, seed, nodes, fraction, true);
        prop_assert_eq!(no_events.len(), 0, "Off sink must record nothing");
        prop_assert_eq!(
            stats_mem,
            stats_off,
            "memory tracing perturbed the run: scheme={}",
            scheme.name
        );
        prop_assert!(
            !events.is_empty(),
            "a traced re-convergence must record events"
        );

        // Contract 2: a second traced run — byte-identical JSONL.
        let (_, again) = run(scheme, seed, nodes, fraction, true);
        let (first, second) = (to_jsonl(&events), to_jsonl(&again));
        prop_assert!(
            first == second,
            "trace streams diverged: scheme={} ({} vs {} bytes)",
            scheme.name,
            first.len(),
            second.len()
        );
    }
}
