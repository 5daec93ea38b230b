//! Burst withdrawals on full-table workloads.
//!
//! The full-table workload makes the prefix space orders of magnitude
//! larger than the router space, and a burst withdrawal floods thousands
//! of `WithdrawOrigin` events into one instant — the event-storm shape
//! the paper studies. After the storm settles, every withdrawn prefix
//! must be gone from every Loc-RIB, the burst bookkeeping
//! (`Network::withdrawn_prefixes`) must name exactly what was withdrawn,
//! and the trace of the whole run must fit its sink without drops.

use bgpsim::network::{FullTableSpec, Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn burst_withdrawal_on_full_table_leaves_no_withdrawn_route() {
    for (seed, nodes, table) in [(3u64, 18usize, 120u32), (7, 20, 250), (11, 24, 400)] {
        for scheme in [Scheme::constant_mrai(0.5), Scheme::batching(0.5)] {
            let what = format!("scheme={} seed={seed} table={table}", scheme.name);
            let scheme = scheme.with_full_table(FullTableSpec::internet_like(table));
            let mut rng = SmallRng::seed_from_u64(seed);
            let topo = skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng).unwrap();
            let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, seed));
            net.set_trace_sink(bgpsim::TraceSink::memory(1 << 22));
            net.run_initial_convergence();
            let mut withdrawn = net.inject_burst_withdrawal(&FailureSpec::CenterFraction(0.2));
            assert!(
                !withdrawn.is_empty(),
                "{what}: burst must withdraw something"
            );
            net.run_to_quiescence();

            let mem = net
                .trace_sink()
                .memory_events()
                .expect("memory sink attached");
            assert_eq!(mem.dropped(), 0, "{what}: trace capacity exceeded");

            withdrawn.sort();
            let recorded: Vec<_> = net.withdrawn_prefixes().collect();
            assert_eq!(recorded, withdrawn, "{what}: withdrawn set diverged");
            for r in net.topology().router_ids() {
                let rib = net.node(r).expect("bursts kill no router").loc_rib();
                for &p in &withdrawn {
                    assert!(
                        rib.get(p).is_none(),
                        "{what}: router {r} kept withdrawn {p:?}"
                    );
                }
            }
            net.assert_routing_consistent();
        }
    }
}
