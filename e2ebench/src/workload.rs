//! The three workloads, how their networks are built, and the untraced
//! end-to-end pass every timed repetition runs.
//!
//! Networks are derived exactly as `Experiment` derives a trial-0 network
//! (topology from the `("topology", 0)` stream of the base seed, simulation
//! seed from the `("sim-seed", 0)` stream), so the paper sweep's up-front
//! networks are the same networks its runner converges internally.

use std::time::Instant;

use bgpsim::experiment::{run_all_parallel, Experiment, TopologySpec};
use bgpsim::figures::FAILURE_FRACTIONS;
use bgpsim::{FullTableSpec, Network, RunStats, Scheme, SimConfig};
use bgpsim_des::RngStreams;
use bgpsim_topology::region::FailureSpec;
use bgpsim_topology::Topology;
use rand::Rng;

/// Number of pinned input variants per workload; `--seed` picks one.
pub const VARIANTS: usize = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Three schemes × the paper's six failure sizes on the 120-node
    /// 70-30 topology, through the parallel sweep runner.
    PaperSweep,
    /// A 40-router full-table network hit by a central burst withdrawal.
    FulltableBurst,
    /// A 500-AS CAIDA-like network losing its central 10% of routers.
    LargescaleFailure,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::FulltableBurst,
        Workload::LargescaleFailure,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::FulltableBurst => "fulltable_burst",
            Workload::LargescaleFailure => "largescale_failure",
        }
    }

    /// Base seeds of the pinned input variants. Of the candidate seeds
    /// 2006..=2021, these are the four nearest the candidates' medians in
    /// post-failure events plus peak RSS (README.md, "Inputs"): the seed
    /// changes the topology and timings, not the amount of work.
    pub fn base_seeds(self) -> [u64; VARIANTS] {
        match self {
            Workload::PaperSweep => [2009, 2011, 2016, 2019],
            Workload::FulltableBurst => [2008, 2010, 2018, 2019],
            Workload::LargescaleFailure => [2007, 2018, 2020, 2021],
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own (`Full`) or a seconds-long shrunken
/// copy used by the package's tests (`Small`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports on.
    Full,
    /// Tiny networks of the same shape, for smoke tests.
    Small,
}

impl Scale {
    /// The scale's name in the pinned-output file.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// What one trial fails once its network has converged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Failure {
    /// `inject_failure` of the central fraction of routers.
    Routers(f64),
    /// `inject_burst_withdrawal` of the prefixes originated in the central
    /// fraction of routers.
    Burst(f64),
}

impl Failure {
    /// Applies the failure through the public injection API.
    pub fn inject(self, net: &mut Network) {
        match self {
            Failure::Routers(f) => {
                net.inject_failure(&FailureSpec::CenterFraction(f));
            }
            Failure::Burst(f) => {
                net.inject_burst_withdrawal(&FailureSpec::CenterFraction(f));
            }
        }
    }
}

/// One failure trial: which of the plan's networks it starts from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trial {
    /// Index into [`Plan::schemes`].
    pub net: usize,
    /// What fails.
    pub failure: Failure,
}

/// A workload resolved to concrete inputs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The input size.
    pub scale: Scale,
    /// Which pinned input variant (`seed mod VARIANTS`).
    pub variant: usize,
    /// The variant's base seed.
    pub base_seed: u64,
    /// The topology family (one sample, shared by all networks).
    pub topology: TopologySpec,
    /// One network per scheme.
    pub schemes: Vec<Scheme>,
    /// The failure trials, in pinned-output order.
    pub trials: Vec<Trial>,
    /// Worker threads for the sweep runner (1 for serial workloads).
    pub threads: usize,
}

impl Plan {
    /// Resolves `workload` at `scale` for the input variant `seed` selects.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let variant = (seed % VARIANTS as u64) as usize;
        let small = scale == Scale::Small;
        let (topology, schemes, trials, threads) = match workload {
            Workload::PaperSweep => {
                let schemes = vec![
                    Scheme::constant_mrai(0.5),
                    Scheme::batching(0.5),
                    Scheme::dynamic_default(),
                ];
                let trials = (0..schemes.len())
                    .flat_map(|net| {
                        FAILURE_FRACTIONS.iter().map(move |&f| Trial {
                            net,
                            failure: Failure::Routers(f),
                        })
                    })
                    .collect();
                let n = if small { 30 } else { 120 };
                let threads = bgpsim::experiment::default_thread_count().min(2);
                (TopologySpec::seventy_thirty(n), schemes, trials, threads)
            }
            Workload::FulltableBurst => {
                let (n, prefixes) = if small { (12, 600) } else { (40, 20_000) };
                let scheme =
                    Scheme::batching(0.5).with_full_table(FullTableSpec::internet_like(prefixes));
                let trial = Trial {
                    net: 0,
                    failure: Failure::Burst(0.10),
                };
                (
                    TopologySpec::seventy_thirty(n),
                    vec![scheme],
                    vec![trial],
                    1,
                )
            }
            Workload::LargescaleFailure => {
                let n = if small { 80 } else { 500 };
                let trial = Trial {
                    net: 0,
                    failure: Failure::Routers(0.10),
                };
                (
                    TopologySpec::caida_like(n),
                    vec![Scheme::batching(0.5)],
                    vec![trial],
                    1,
                )
            }
        };
        Plan {
            workload,
            scale,
            variant,
            base_seed: workload.base_seeds()[variant],
            topology,
            schemes,
            trials,
            threads,
        }
    }

    /// Samples the plan's topology.
    pub fn generate_topology(&self) -> Topology {
        let streams = RngStreams::new(self.base_seed);
        self.topology.generate(&mut streams.stream("topology", 0))
    }

    /// Builds (without running) the network of scheme `net` over `topo`.
    pub fn build(&self, topo: Topology, net: usize) -> Network {
        let sim_seed: u64 = RngStreams::new(self.base_seed).stream("sim-seed", 0).gen();
        Network::new(topo, SimConfig::from_scheme(&self.schemes[net], sim_seed))
    }

    /// The paper sweep's experiment points, one per trial, in trial order.
    pub fn experiments(&self) -> Vec<Experiment> {
        self.trials
            .iter()
            .map(|t| Experiment {
                topology: self.topology.clone(),
                scheme: self.schemes[t.net].clone(),
                failure: match t.failure {
                    Failure::Routers(f) => FailureSpec::CenterFraction(f),
                    Failure::Burst(_) => unreachable!("the sweep fails routers only"),
                },
                trials: 1,
                base_seed: self.base_seed,
            })
            .collect()
    }
}

/// What one untraced end-to-end pass measured and produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// The whole pass, set-up to verification.
    pub wall_s: f64,
    /// Topology generation, `Network::new` and initial convergence.
    pub setup_s: f64,
    /// Failure injection through quiescence (the runner call for the sweep).
    pub reconverge_s: f64,
    /// Per-trial statistics, in trial order.
    pub stats: Vec<RunStats>,
    /// Initial convergence of each up-front network, in scheme order.
    pub initial: Vec<bgpsim_des::SimDuration>,
}

impl Pass {
    /// Events delivered after the failure, summed over trials.
    pub fn events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }
}

/// Runs one untraced pass of `plan`. Panics (caught by the caller) if the
/// engine panics or a routing-consistency check fails.
pub fn run_pass(plan: &Plan) -> Pass {
    let started = Instant::now();
    let topo = plan.generate_topology();
    let mut nets: Vec<Network> = (0..plan.schemes.len())
        .map(|i| plan.build(topo.clone(), i))
        .collect();
    let initial = nets
        .iter_mut()
        .map(|n| n.run_initial_convergence())
        .collect();
    let setup_s = started.elapsed().as_secs_f64();

    let reconverge = Instant::now();
    let stats: Vec<RunStats> = match plan.workload {
        Workload::PaperSweep => run_all_parallel(&plan.experiments(), Some(plan.threads))
            .iter()
            .map(|a| a.runs[0])
            .collect(),
        Workload::FulltableBurst | Workload::LargescaleFailure => {
            let net = &mut nets[0];
            plan.trials[0].failure.inject(net);
            vec![net.run_to_quiescence()]
        }
    };
    let reconverge_s = reconverge.elapsed().as_secs_f64();
    // The sweep's runner keeps its networks, so its converged up-front
    // networks are what gets checked; the serial workloads check the
    // re-converged network.
    for net in &nets {
        net.assert_routing_consistent();
    }
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        setup_s,
        reconverge_s,
        stats,
        initial,
    }
}
