//! Full-table burst withdrawal, end to end: a 10^5-prefix routing table
//! allocated through the longest-prefix-match trie, a regional storm that
//! withdraws every prefix block originated near the grid centre in one
//! event burst, and the traced re-convergence exported as JSONL plus
//! figure CSVs (per-destination settle times, run summary, withdrawn
//! set).
//!
//! ```sh
//! cargo run --release --example fulltable_burst
//! ```
//!
//! Environment knobs:
//!
//! * `BGPSIM_NODES` — topology size (default 40).
//! * `BGPSIM_TABLE` — total prefixes in the full table (default 100000).
//! * `BGPSIM_FRACTION` — central fraction whose origins withdraw
//!   (default 0.05).
//! * `BGPSIM_SEED` — simulation seed (default 7).
//! * `BGPSIM_OUT` — output directory (default `target/fulltable_burst`).
//! * `BGPSIM_TRACE_OUT` — override path for the raw trace JSONL
//!   (default `<out>/trace.jsonl`).
//!
//! Every output file is a pure function of the knobs above, so two builds
//! can be compared byte for byte. The trace streams to disk while the
//! storm runs (a 10^5-prefix burst emits far more events than a memory
//! ring should hold) and is re-read afterwards for the timeline pass.

use std::path::PathBuf;

use bgpsim::network::{Network, SimConfig};
use bgpsim::scheme::Scheme;
use bgpsim::trace::{Timeline, TraceEvent, TraceSink};
use bgpsim::FullTableSpec;
use bgpsim_topology::degree::SkewedSpec;
use bgpsim_topology::generators::skewed_topology;
use bgpsim_topology::region::FailureSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> std::io::Result<()> {
    let nodes: usize = env_or("BGPSIM_NODES", 40);
    let table: u32 = env_or("BGPSIM_TABLE", 100_000);
    let fraction: f64 = env_or("BGPSIM_FRACTION", 0.05);
    let seed: u64 = env_or("BGPSIM_SEED", 7);
    let out_dir = PathBuf::from(
        std::env::var("BGPSIM_OUT").unwrap_or_else(|_| "target/fulltable_burst".into()),
    );
    std::fs::create_dir_all(&out_dir)?;
    let trace_path = std::env::var("BGPSIM_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| out_dir.join("trace.jsonl"));

    let scheme = Scheme::batching(0.5).with_full_table(FullTableSpec::internet_like(table));
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = skewed_topology(nodes, &SkewedSpec::seventy_thirty(), &mut rng)
        .expect("70-30 topology is realizable");
    let mut net = Network::new(topo, SimConfig::from_scheme(&scheme, seed));

    println!(
        "== fulltable_burst: {} routers × {} prefixes, scheme '{}' ==",
        nodes, table, scheme.name
    );
    net.run_initial_convergence();
    println!(
        "initial table  {} routes held across the network",
        net.memory_footprint().routes
    );

    let mut withdrawn = net.inject_burst_withdrawal(&FailureSpec::CenterFraction(fraction));
    withdrawn.sort_unstable();
    let t0 = net.failure_time().expect("burst injected");
    println!(
        "burst          {} prefixes withdrawn in one storm at t={:.2} s",
        withdrawn.len(),
        t0.as_secs_f64()
    );

    // Trace only the re-convergence, streaming straight to disk: a
    // 10^5-prefix storm produces more events than a memory ring should
    // buffer. The JSONL file is itself the determinism artefact.
    net.set_trace_sink(TraceSink::jsonl_file(&trace_path)?);
    let stats = net.run_to_quiescence();
    net.trace_sink_mut().flush()?;
    net.set_trace_sink(TraceSink::Off);
    net.assert_routing_consistent();

    // Re-read the stream for the timeline pass (the memory-sink path the
    // smaller examples take would have dropped the oldest events here).
    let raw = std::fs::read_to_string(&trace_path)?;
    let events: Vec<TraceEvent> = raw
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses"))
        .collect();
    drop(raw);
    println!(
        "re-convergence {:.2} s sim-time, {} messages, {} trace events",
        stats.convergence_delay.as_secs_f64(),
        stats.messages,
        events.len()
    );
    println!(
        "raw trace      -> {} ({} events)",
        trace_path.display(),
        events.len()
    );

    let tl = Timeline::from_events(&events);
    println!(
        "best paths     {} changes, {} transient invalid routes across {} destinations",
        tl.best_changes,
        tl.transient_routes(),
        tl.transient_by_prefix.len()
    );
    println!(
        "settle         last destination settles {:.2} s after the storm",
        tl.last_settle_since(t0).as_secs_f64()
    );

    let write = |name: &str, data: String| -> std::io::Result<()> {
        let path = out_dir.join(name);
        std::fs::write(&path, data)?;
        println!("{:<14} -> {}", name, path.display());
        Ok(())
    };

    // Figure CSVs. `settle.csv` is the per-destination settle map;
    // `withdrawn.csv` pins the storm's exact prefix set (slot index and
    // trie-assigned address); `summary.csv` is the delay-vs-table-size
    // data point this run contributes to EXPERIMENTS.md.
    write("settle.csv", tl.settle_csv(t0))?;
    let mut wcsv = String::from("prefix,ip\n");
    for p in &withdrawn {
        let ip = net.ip_of_prefix(*p).expect("withdrawn prefix is allocated");
        wcsv.push_str(&format!("{},{ip}\n", p.index()));
    }
    write("withdrawn.csv", wcsv)?;
    write(
        "summary.csv",
        format!(
            "nodes,table_size,withdrawn,messages,events,convergence_delay_secs,transient_routes\n\
             {},{},{},{},{},{:.6},{}\n",
            nodes,
            table,
            withdrawn.len(),
            stats.messages,
            stats.events,
            stats.convergence_delay.as_secs_f64(),
            tl.transient_routes()
        ),
    )?;
    Ok(())
}
