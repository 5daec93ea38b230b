//! Layer kernels, timed from outside on a post-failure network: the
//! decision process over every (live router, prefix), `AsPath::prepend`
//! over every Loc-RIB best, and an input-queue replay of the arrival
//! stream the counting pass recorded.

use std::hint::black_box;
use std::time::Instant;

use bgpsim::Network;
use bgpsim_bgp::decision::select_best;
use bgpsim_bgp::queue::{InputQueue, QueueDiscipline, WorkItem};
use bgpsim_bgp::{AsPath, Prefix, UpdateMsg};
use bgpsim_topology::{AsId, RouterId};

/// Each kernel repeats until it has run at least this many operations, so
/// tiny networks still give a readable ns/op; the count stays
/// deterministic.
const MIN_KERNEL_OPS: u64 = 100_000;

/// Operations run and seconds spent by one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTime {
    /// Operations timed.
    pub ops: u64,
    /// Seconds they took.
    pub secs: f64,
}

impl OpTime {
    /// Nanoseconds per operation (0 when nothing ran).
    pub fn ns_per_op(self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }

    /// Accumulates another measurement.
    pub fn add(&mut self, other: OpTime) {
        self.ops += other.ops;
        self.secs += other.secs;
    }
}

/// Runs `kernel` (which returns its op count) until `MIN_KERNEL_OPS`.
fn repeat(mut kernel: impl FnMut() -> u64) -> OpTime {
    let started = Instant::now();
    let mut ops = 0;
    loop {
        let ran = kernel();
        ops += ran;
        if ops >= MIN_KERNEL_OPS || ran == 0 {
            return OpTime {
                ops,
                secs: started.elapsed().as_secs_f64(),
            };
        }
    }
}

/// `decision::select_best` for every live router and every prefix.
pub fn select_best_all(net: &Network) -> OpTime {
    let prefixes = net.table_size() as u32;
    repeat(|| {
        let mut ops = 0;
        for r in net.topology().router_ids() {
            let Some(node) = net.node(r) else { continue };
            for p in 0..prefixes {
                black_box(select_best(Prefix::new(p), node.rib_in()));
                ops += 1;
            }
        }
        ops
    })
}

/// `AsPath::prepend` of the router's AS onto every Loc-RIB best.
pub fn prepend_all(net: &Network) -> OpTime {
    repeat(|| {
        let mut ops = 0;
        for r in net.topology().router_ids() {
            let Some(node) = net.node(r) else { continue };
            for (_, best) in node.loc_rib().iter() {
                black_box(best.path.prepend(node.as_id()));
                ops += 1;
            }
        }
        ops
    })
}

/// One queue-relevant trace record, as the counting pass recorded it.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// An UPDATE arrived at `node` (a push).
    Received {
        /// Receiving router.
        node: u32,
        /// Sending peer.
        from: u32,
        /// Destination.
        prefix: u32,
        /// Announcement (`true`) or withdrawal.
        advertise: bool,
    },
    /// `node` finished one work item (a batch pop when none is in hand).
    Processed {
        /// Processing router.
        node: u32,
    },
}

/// Replays `arrivals` through one `InputQueue` per router: every arrival
/// is a `push`; a processed item with no popped item left in hand is a
/// `pop_batch`. Ops are pushes plus pops.
pub fn queue_replay(arrivals: &[Arrival], discipline: QueueDiscipline, routers: usize) -> OpTime {
    let path = AsPath::from_hops([AsId::new(0)]);
    repeat(|| {
        let mut queues: Vec<InputQueue> =
            (0..routers).map(|_| InputQueue::new(discipline)).collect();
        let mut in_hand = vec![0usize; routers];
        let mut ops = 0;
        for &a in arrivals {
            match a {
                Arrival::Received {
                    node,
                    from,
                    prefix,
                    advertise,
                } => {
                    let prefix = Prefix::new(prefix);
                    let msg = if advertise {
                        UpdateMsg::advertise(prefix, path.clone())
                    } else {
                        UpdateMsg::withdraw(prefix)
                    };
                    queues[node as usize].push(WorkItem::Update {
                        from: RouterId::new(from),
                        msg,
                    });
                    ops += 1;
                }
                Arrival::Processed { node } => {
                    let node = node as usize;
                    if in_hand[node] == 0 {
                        in_hand[node] = black_box(queues[node].pop_batch()).len();
                        ops += 1;
                    }
                    in_hand[node] = in_hand[node].saturating_sub(1);
                }
            }
        }
        ops
    })
}
