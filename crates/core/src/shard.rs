//! The sharded deterministic event loop — conservative PDES with
//! link-delay lookahead, **shard-owned future-event lists**, and a
//! destination-partitioned parallel commit (DESIGN.md §13).
//!
//! Every inter-node interaction in this model crosses a link with a fixed
//! one-way delay (`SimConfig::link_delay`, the paper's 25 ms), so an event
//! executed at time `t` can only create events at *other* nodes at
//! `t + link_delay` or later. That delay is the classic conservative-PDES
//! *lookahead*: all events inside a half-open window
//! `[t0, t0 + link_delay)` that touch different nodes are causally
//! independent and may run concurrently.
//!
//! There is no central event list while the loop runs. At pump start the
//! network's FEL is **partitioned**: drained wholesale and every event
//! re-inserted (under its existing `(time, id)` key) into its owning
//! shard's private [`Fel`] of the same backend. From then on inserts and
//! the per-epoch drain are shard-local; the only cross-shard traffic is
//! fixed-order mailbox chunks exchanged at the epoch barrier. Each epoch:
//!
//! 1. **Execute (parallel, Phase A).** Every *engaged* shard — one with
//!    an event or pending mail before `epoch_end = t0 + lookahead` —
//!    first files its mailbox chunks into its FEL, drains its FEL to
//!    `epoch_end`, then runs its routers' handlers in local `(time, key)`
//!    order, feeding handler-created *same-node* events that land inside
//!    the epoch (ProcDone, MRAI/reuse expiries) back into a local heap
//!    with keys above [`LOCAL_KEY_BASE`], and records one action trace
//!    per handled event plus one `(time, id, walk-entry)` index row per
//!    drained event. Cross-node sends always land at
//!    `t + link_delay >= epoch_end`, i.e. outside the epoch — the
//!    lookahead argument — so shards never need to talk mid-epoch. Jobs
//!    run on the process-wide parked worker pool ([`crate::pool`]); small
//!    epochs (predicted from the previous epoch's size, see
//!    [`PHASE_A_PAR_MIN_OPS`]) run inline on the coordinator instead.
//! 2. **Walk (serial, Phase B).** Merge the shards' index rows into one
//!    replay heap and walk the epoch in global `(time, id)` order — but
//!    apply only the side effects that *need* the order: advance the
//!    clock and delivered count, consume the matching recorded trace,
//!    allocate *real* event ids for every action in exactly the order a
//!    serial run would, track the activity clock, and bin each event's
//!    recorded actions into per-destination commit streams (keyed by the
//!    BGP prefix the event concerns; destinations are causally
//!    independent within an epoch). The walk touches no message payloads
//!    — it is the irreducible serial fraction.
//! 3. **Apply (parallel) + exchange (serial).** Each commit stream
//!    independently expands its binned actions into per-destination-shard
//!    mail chunks (`Deliver` at `t + link_delay`, cross-epoch timer
//!    expiries) under the pre-allocated ids, bumps private message
//!    counters, and collects its trace events. Streams run on the worker
//!    pool when the epoch is large enough to pay for the fan-out, inline
//!    otherwise — the outputs are identical either way. The exchange then
//!    sums the counters, emits trace events in commit order, and routes
//!    each stream's chunks into the destination shards' mailboxes —
//!    replacing PR 6's serial k-way merge back into a global heap with
//!    O(streams × shards) pointer moves.
//!
//! ## Why this is bit-identical to the serial loop
//!
//! The serial engine delivers in `(time, id)` order, where ids are a
//! global insertion counter; ids are the tie-break for same-instant
//! events, so reproducing serial behavior means reproducing exact id
//! assignment, not just timestamps.
//!
//! *Per-node order.* For one router, a worker's `(time, key)` order
//! equals the serial `(time, id)` order: drained events carry their real
//! ids in both; intra-epoch self-events sort after every drained event at
//! the same instant in both (worker keys start at [`LOCAL_KEY_BASE`],
//! real ids of intra-epoch creations exceed every pre-epoch id); and two
//! self-events of the same node tie-break by creation order in both.
//! Handler inputs are thus identical event-by-event, and node state
//! (including the node's private RNG stream) evolves identically.
//!
//! *Cross-node order.* Routers share no mutable state during an epoch —
//! aliveness, dead links, sessions, topology, and policy tiers are all
//! frozen while the queues drain — so cross-node interleaving inside an
//! epoch is unobservable to the nodes. Every *global* side effect is
//! either applied by the serial walk in serial order (clock, delivered
//! count, id allocation, activity clock) or is order-independent and
//! reconciled by the exchange (counter sums; mailbox inserts under
//! pre-assigned `(time, id)` keys — a FEL's delivery order is a pure
//! function of those keys, not of insertion order, so neither the chunk
//! routing order nor which FEL an event sits in is observable; trace
//! emission, restored to commit order by the plan-index merge). The union
//! of the shard FELs and mailboxes at every epoch boundary is therefore
//! the exact event set a serial run's scheduler would hold, with the same
//! keys, which carries the invariant into the next epoch — and makes
//! `RunStats`, goldens, warm-start snapshots and trace streams
//! independent of both the shard count and the commit-stream count. At
//! pump exit the shard FELs are empty, the walk has settled all clock and
//! counter accounting on the (now empty) central FEL, and the network is
//! indistinguishable from one a serial pump quiesced.
//!
//! *Why destinations.* A BGP update concerns exactly one prefix, and
//! within an epoch the actions recorded for different prefixes never
//! read each other's state — the per-destination logical queues of the
//! batching scheme make the same independence explicit at the node
//! level. Binning by destination therefore yields streams whose applies
//! commute; events with no prefix (ProcDone, PeerDown/Up, per-peer MRAI)
//! bin by owning router instead, which is equally order-free at this
//! stage because *all* ordered effects already happened in the walk.
//!
//! *Mailbox ordering rule.* A mailbox chunk is one commit stream's mail
//! for one destination shard, id-ascending within the chunk; chunks are
//! routed in stream-major order and filed into the destination FEL before
//! that shard's next drain. None of those orders matter for correctness —
//! only the `(time, id)` keys do — but fixing them keeps the engine's
//! internal traversal deterministic too. An event landing exactly on an
//! epoch boundary is *not* drained (the window is half-open) and is
//! delivered at the start of the next epoch, exactly where the serial
//! order puts it; the epoch start `t0` is the minimum over the shards'
//! FEL heads *and* undelivered mailbox chunks, so mail can never be
//! skipped past.
//!
//! The loop falls back to serial for `shards <= 1`, zero link delay (no
//! lookahead), and sampling runs (samples read global state mid-epoch).

use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use bgpsim_bgp::node::Action;
use bgpsim_bgp::policy::relationship_by_tier;
use bgpsim_bgp::trace::NodeEvent;
use bgpsim_bgp::BgpNode;
use bgpsim_des::{EventId, Fel, SimDuration, SimTime};
use bgpsim_topology::{RouterId, Topology};

use crate::network::{link_key, Ev, Network};

/// Worker-local sort keys for intra-epoch self-events start here — above
/// any real event id, so a drained event always outranks a same-instant
/// self-event, exactly like real id assignment would order them.
const LOCAL_KEY_BASE: u64 = 1 << 63;

/// Epochs with fewer committed ops than this apply their commit streams
/// inline: even a parked-pool wake costs more than the work. Deliberately
/// low so modest test topologies still exercise the parallel path; the
/// outputs are identical either way.
const COMMIT_PAR_MIN_OPS: usize = 16;

/// Epochs *predicted* to drain fewer events than this run Phase A on the
/// coordinator thread instead of the worker pool — waking workers costs
/// more than executing a handful of handlers directly. The predictor is
/// the previous epoch's drained count (the drain is now shard-local, so
/// the coordinator no longer sees the count before fan-out); epoch sizes
/// are strongly autocorrelated, and a misprediction costs only wall
/// clock, never correctness. Mirrors [`COMMIT_PAR_MIN_OPS`], and like it
/// is deliberately low so modest test topologies still exercise the
/// fan-out path; the outputs are identical either way (the shared
/// [`run_shard_epoch`] body runs on either thread).
const PHASE_A_PAR_MIN_OPS: usize = 16;

/// Cumulative wall-clock the sharded event loop spent per stage, exposed
/// through [`Network::shard_phase_timings`]. Instrumentation only — never
/// part of `RunStats`, so bit-identity comparisons are unaffected.
///
/// The Amdahl read: `phase_b_secs` (the serial walk) plus `drain_secs`
/// and `mailbox_exchange_secs` (the serial partition/steering remainder)
/// bound the speedup shards can buy; `phase_a_secs` and the parallel part
/// of `merge_secs` scale with cores.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardPhaseTimings {
    /// Epochs the loop ran.
    pub epochs: u64,
    /// Epochs whose commit streams ran on the worker pool (the rest
    /// applied inline — too few ops, or one stream configured).
    pub parallel_commit_epochs: u64,
    /// Epochs whose Phase A ran on the coordinator thread (predicted
    /// smaller than [`PHASE_A_PAR_MIN_OPS`] — a pool wake would cost more
    /// than the handlers).
    pub inline_phase_a_epochs: u64,
    /// Serial FEL bookkeeping outside the phases: the pump-start
    /// partition of the central FEL onto the shards, plus the per-epoch
    /// `t0`/engagement scan over the shards' cached heads.
    pub drain_secs: f64,
    /// Mail filing + shard-local drain + parallel node execution +
    /// barrier (Phase A).
    pub phase_a_secs: f64,
    /// The serial order walk: id allocation, delivery accounting,
    /// activity clock, commit-stream binning (Phase B).
    pub phase_b_secs: f64,
    /// Commit-stream apply (parallel or inline) + counter sums + trace
    /// emission in commit order.
    pub merge_secs: f64,
    /// Routing each stream's mail chunks into the destination shards'
    /// mailboxes at the epoch barrier — the serial step that replaced
    /// PR 6's id-ordered k-way merge back into a central heap.
    pub mailbox_exchange_secs: f64,
}

impl ShardPhaseTimings {
    /// Accumulates another timing block into this one.
    pub(crate) fn add(&mut self, other: &ShardPhaseTimings) {
        self.epochs += other.epochs;
        self.parallel_commit_epochs += other.parallel_commit_epochs;
        self.inline_phase_a_epochs += other.inline_phase_a_epochs;
        self.drain_secs += other.drain_secs;
        self.phase_a_secs += other.phase_a_secs;
        self.phase_b_secs += other.phase_b_secs;
        self.merge_secs += other.merge_secs;
        self.mailbox_exchange_secs += other.mailbox_exchange_secs;
    }

    /// Total instrumented wall-clock across all stages.
    pub fn total_secs(&self) -> f64 {
        self.drain_secs
            + self.phase_a_secs
            + self.phase_b_secs
            + self.merge_secs
            + self.mailbox_exchange_secs
    }

    /// The serial fraction of the instrumented wall-clock: everything the
    /// coordinator must do alone (partition/steering, the order walk, the
    /// exchange) over the total. The Amdahl bound on shard speedup.
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total_secs();
        if total == 0.0 {
            return 0.0;
        }
        (self.drain_secs + self.phase_b_secs + self.mailbox_exchange_secs) / total
    }
}

/// Min-heap entry ordered by `(at, key)`.
struct Pending<T> {
    at: SimTime,
    key: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// What the walk must do for one replayed event — a compact stand-in for
/// the event that avoids cloning message payloads.
#[derive(Clone, Copy)]
enum CommitKind {
    /// Originate / Deliver / ProcDone: handled iff the node is alive;
    /// marks activity whenever handled.
    Activity,
    /// MraiExpiry / ReuseExpiry: handled iff alive; marks activity only
    /// when the handler produced actions.
    Timer,
    /// PeerDown: handled iff alive; never marks activity by itself.
    Silent,
    /// PeerUp: handled iff the session to `peer` is up; marks activity.
    PeerUp {
        /// The session peer being (re-)established.
        peer: RouterId,
    },
}

/// One walk replay entry.
struct CommitEv {
    node: RouterId,
    kind: CommitKind,
    /// Destination key binning this event's actions onto a commit stream:
    /// the prefix the event concerns, or the owning router for events
    /// with no prefix. Any deterministic mapping preserves bit-identity;
    /// prefix-major is what makes the streams load-balance.
    dest: u32,
}

/// The router whose handler an event invokes.
fn owner(ev: &Ev) -> RouterId {
    match ev {
        Ev::Originate { node, .. }
        | Ev::WithdrawOrigin { node, .. }
        | Ev::ProcDone { node }
        | Ev::MraiExpiry { node, .. }
        | Ev::PeerDown { node, .. }
        | Ev::PeerUp { node, .. }
        | Ev::ReuseExpiry { node, .. } => *node,
        Ev::Deliver { to, .. } => *to,
    }
}

/// The walk semantics of an event (mirrors `Network::handle`).
fn commit_kind(ev: &Ev) -> CommitKind {
    match ev {
        Ev::Originate { .. }
        | Ev::WithdrawOrigin { .. }
        | Ev::Deliver { .. }
        | Ev::ProcDone { .. } => CommitKind::Activity,
        Ev::MraiExpiry { .. } | Ev::ReuseExpiry { .. } => CommitKind::Timer,
        Ev::PeerDown { .. } => CommitKind::Silent,
        Ev::PeerUp { peer, .. } => CommitKind::PeerUp { peer: *peer },
    }
}

/// The destination stream key of an event: its prefix where it has one,
/// its owning router otherwise.
fn commit_dest(ev: &Ev) -> u32 {
    match ev {
        Ev::Originate { prefix, .. } | Ev::WithdrawOrigin { prefix, .. } => prefix.index() as u32,
        Ev::Deliver { msg, .. } => msg.prefix.index() as u32,
        Ev::ReuseExpiry { prefix, .. } => prefix.index() as u32,
        Ev::MraiExpiry { node, prefix, .. } => {
            prefix.map_or(node.index() as u32, |p| p.index() as u32)
        }
        Ev::ProcDone { node } | Ev::PeerDown { node, .. } | Ev::PeerUp { node, .. } => {
            node.index() as u32
        }
    }
}

/// The commit stream a destination key bins into.
///
/// A plain `dest % streams` aliases badly on full-table workloads: prefix
/// slots are handed out in contiguous per-AS blocks, so the prefixes a
/// single origin withdraws in one burst are *strided* — whenever the block
/// size shares a factor with the stream count, whole bursts land in one or
/// two streams and the parallel commit degenerates to serial. A
/// multiply-shift mix (Fibonacci hashing; the constant is
/// `2^64 / golden ratio`) decorrelates the low bits first. The binning is
/// unobservable in simulator output — stream ops are replayed in
/// `plan_idx` order keyed by pre-allocated `(time, id)` — so this choice
/// only affects load balance, never results (the byte-identity suite pins
/// that).
fn stream_of(dest: u32, streams: usize) -> usize {
    (((dest as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % streams
}

/// The same-node follow-up event an action asks the driver to schedule
/// (`None` for sends, which cross a link and leave the epoch).
fn follow_up(origin: RouterId, t: SimTime, action: &Action) -> Option<(SimTime, Ev)> {
    match action {
        Action::Send { .. } => None,
        Action::StartProcessing { duration } => {
            Some((t + *duration, Ev::ProcDone { node: origin }))
        }
        Action::StartMrai {
            peer,
            prefix,
            delay,
            gen,
        } => Some((
            t + *delay,
            Ev::MraiExpiry {
                node: origin,
                peer: *peer,
                prefix: *prefix,
                gen: *gen,
            },
        )),
        Action::StartReuse {
            peer,
            prefix,
            delay,
            gen,
        } => Some((
            t + *delay,
            Ev::ReuseExpiry {
                node: origin,
                peer: *peer,
                prefix: *prefix,
                gen: *gen,
            },
        )),
    }
}

/// When a non-send action's follow-up event fires — `follow_up` without
/// building the event, for the walk's intra-epoch test.
fn follow_at(t: SimTime, action: &Action) -> SimTime {
    match action {
        Action::StartProcessing { duration } => t + *duration,
        Action::StartMrai { delay, .. } | Action::StartReuse { delay, .. } => t + *delay,
        Action::Send { .. } => unreachable!("sends have no same-node follow-up"),
    }
}

/// Walk semantics and destination key of a non-send action's follow-up.
fn follow_commit(origin: RouterId, action: &Action) -> (CommitKind, u32) {
    match action {
        Action::StartProcessing { .. } => (CommitKind::Activity, origin.index() as u32),
        Action::StartMrai { prefix, .. } => (
            CommitKind::Timer,
            prefix.map_or(origin.index() as u32, |p| p.index() as u32),
        ),
        Action::StartReuse { prefix, .. } => (CommitKind::Timer, prefix.index() as u32),
        Action::Send { .. } => unreachable!("sends have no same-node follow-up"),
    }
}

/// Read-only world state shared by every shard worker. Everything here is
/// frozen while the queue drains, which is what makes the parallel phases
/// safe.
#[derive(Clone, Copy)]
struct ShardCtx<'a> {
    topo: &'a Topology,
    policy: bool,
    tiers: Option<&'a [usize]>,
    alive: &'a [bool],
    dead_links: &'a HashSet<(u32, u32)>,
}

impl ShardCtx<'_> {
    fn session_alive(&self, a: RouterId, b: RouterId) -> bool {
        self.alive[a.index()] && self.alive[b.index()] && !self.dead_links.contains(&link_key(a, b))
    }
}

/// Runs one event's node handler, mirroring the dispatch arms of
/// `Network::handle` without any of their global side effects. Returns
/// `None` when the serial engine would have dropped the event (dead node
/// or dead session).
fn dispatch(
    ctx: &ShardCtx<'_>,
    nodes: &mut [Option<BgpNode>],
    base: usize,
    t: SimTime,
    ev: Ev,
) -> Option<(RouterId, Vec<Action>)> {
    match ev {
        Ev::Originate { node, prefix } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.originate(t, prefix)))
        }
        Ev::WithdrawOrigin { node, prefix } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.withdraw_origin(t, prefix)))
        }
        Ev::Deliver { to, from, msg } => {
            let n = nodes[to.index() - base].as_mut()?;
            Some((to, n.on_update(t, from, msg)))
        }
        Ev::ProcDone { node } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.on_proc_done(t)))
        }
        Ev::MraiExpiry {
            node,
            peer,
            prefix,
            gen,
        } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.on_mrai_expiry(t, peer, prefix, gen)))
        }
        Ev::PeerDown { node, peer } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.on_peer_down(t, peer)))
        }
        Ev::ReuseExpiry {
            node,
            peer,
            prefix,
            gen,
        } => {
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.on_reuse_expiry(t, peer, prefix, gen)))
        }
        Ev::PeerUp { node, peer } => {
            if !ctx.session_alive(node, peer) {
                return None;
            }
            let ibgp = !ctx.topo.is_inter_as(node, peer);
            let rel = if ctx.policy && !ibgp {
                let tiers = ctx.tiers.expect("policy runs carry tiers");
                Some(relationship_by_tier(
                    tiers[ctx.topo.router(node).as_id.index()],
                    tiers[ctx.topo.router(peer).as_id.index()],
                ))
            } else {
                None
            };
            let n = nodes[node.index() - base].as_mut()?;
            Some((node, n.on_peer_up(t, peer, ibgp, rel)))
        }
    }
}

/// A shard's Phase A trace: per event it handled, in its execution order,
/// the actions the handler returned and the trace events it buffered
/// (always empty with tracing off).
type EpochTrace = Vec<(RouterId, Vec<Action>, Vec<NodeEvent>)>;
/// One scheduler entry in flight between shards: `(time, id, event)`.
type MailEntry = (SimTime, u64, Ev);

/// One committed event's share of the epoch commit plan, produced by the
/// walk in global `(time, id)` order and consumed by a commit stream.
struct ApplyOp {
    /// Position in the walk's commit order — the key the merge uses to
    /// restore global trace order across streams.
    plan_idx: u32,
    /// Commit (delivery) time of the event.
    t: SimTime,
    /// The router whose handler produced the actions.
    node: RouterId,
    /// First event id the walk allocated for this op's actions; the
    /// stream re-derives per-action ids by replaying the walk's
    /// allocation rule (sends to dead routers consume no id).
    id_base: u64,
    /// The handler's recorded actions.
    actions: Vec<Action>,
    /// The handler's buffered trace events (empty with tracing off).
    events: Vec<NodeEvent>,
}

/// What one commit stream hands back to the exchange.
struct ApplyOut {
    /// Mail chunks per destination shard: scheduler entries under
    /// pre-allocated ids, id-ascending within each chunk.
    mail: Vec<Vec<MailEntry>>,
    /// Earliest entry time per destination shard (`None` for an empty
    /// chunk) — pre-computed here, in parallel, so the serial exchange
    /// only moves pointers.
    mail_min: Vec<Option<SimTime>>,
    /// Advertisements sent by this stream's ops.
    announcements: u64,
    /// Withdrawals sent by this stream's ops.
    withdrawals: u64,
    /// Trace events per op, `plan_idx`-ascending.
    traced: Vec<(u32, SimTime, RouterId, Vec<NodeEvent>)>,
}

impl ApplyOut {
    fn empty(shards: usize) -> ApplyOut {
        ApplyOut {
            mail: (0..shards).map(|_| Vec::new()).collect(),
            mail_min: vec![None; shards],
            announcements: 0,
            withdrawals: 0,
            traced: Vec::new(),
        }
    }
}

/// Expands one commit stream's ops into per-destination-shard mail
/// chunks, message counters and trace batches. Pure with respect to
/// global state: the same inputs give the same outputs whether this runs
/// inline or on a worker, which is what makes the stream count a
/// wall-clock-only knob.
fn apply_ops(
    alive: &[bool],
    shard_of: &[usize],
    shards: usize,
    link_delay: SimDuration,
    epoch_end: SimTime,
    ops: Vec<ApplyOp>,
) -> ApplyOut {
    let mut out = ApplyOut::empty(shards);
    let push = |out: &mut ApplyOut, node: RouterId, entry: MailEntry| {
        let s = shard_of[node.index()];
        let min = &mut out.mail_min[s];
        if min.is_none_or(|m| entry.0 < m) {
            *min = Some(entry.0);
        }
        out.mail[s].push(entry);
    };
    for op in ops {
        if !op.events.is_empty() {
            out.traced.push((op.plan_idx, op.t, op.node, op.events));
        }
        // Re-derive the per-action ids the walk allocated: consecutive
        // from id_base, skipping sends to dead routers (the serial loop
        // never schedules those).
        let mut next_id = op.id_base;
        for action in op.actions {
            if let Action::Send { to, msg } = action {
                if msg.action.is_advertise() {
                    out.announcements += 1;
                } else {
                    out.withdrawals += 1;
                }
                // Messages towards failed routers are lost with the link.
                if alive[to.index()] {
                    let at2 = op.t + link_delay;
                    debug_assert!(at2 >= epoch_end, "send inside lookahead window");
                    let ev2 = Ev::Deliver {
                        to,
                        from: op.node,
                        msg,
                    };
                    push(&mut out, to, (at2, next_id, ev2));
                    next_id += 1;
                }
            } else {
                let (at2, ev2) = follow_up(op.node, op.t, &action).expect("non-send follows up");
                let id = next_id;
                next_id += 1;
                if at2 >= epoch_end {
                    // Cross-epoch follow-up: becomes real mail for the
                    // owner's shard. (Intra-epoch ones were replayed by
                    // the walk and never reach a stream.)
                    push(&mut out, op.node, (at2, id, ev2));
                }
            }
        }
    }
    out
}

/// Executes one shard's epoch batch: run the local `(time, key)` order to
/// exhaustion, feeding intra-epoch same-node follow-ups back into the
/// heap, and record one `(node, actions, trace)` entry per handled event
/// in execution order. The handler-running half of Phase A for one shard
/// — shared verbatim by the pool jobs and the coordinator's inline path
/// for small epochs, so the two paths cannot diverge. `local` must be
/// empty on entry; the loop leaves it empty again (every intra-epoch
/// follow-up fires before `epoch_end` by construction).
fn run_epoch_batch(
    ctx: &ShardCtx<'_>,
    base: usize,
    nodes: &mut [Option<BgpNode>],
    local: &mut BinaryHeap<Pending<Ev>>,
    epoch_end: SimTime,
    batch: Vec<(SimTime, u64, Ev)>,
) -> EpochTrace {
    let mut next_key = LOCAL_KEY_BASE;
    for (at, key, ev) in batch {
        local.push(Pending { at, key, item: ev });
    }
    let mut trace: EpochTrace = Vec::new();
    while let Some(Pending {
        at: t, item: ev, ..
    }) = local.pop()
    {
        let Some((node, actions)) = dispatch(ctx, nodes, base, t, ev) else {
            continue;
        };
        // The trace buffer the handler just filled travels with its
        // actions so the commit can emit it in global order.
        let events = nodes[node.index() - base]
            .as_mut()
            .map(BgpNode::take_trace)
            .unwrap_or_default();
        for action in &actions {
            if let Some((at2, ev2)) = follow_up(node, t, action) {
                if at2 < epoch_end {
                    local.push(Pending {
                        at: at2,
                        key: next_key,
                        item: ev2,
                    });
                    next_key += 1;
                }
            }
        }
        trace.push((node, actions, events));
    }
    trace
}

/// Everything one shard owns for the duration of a pump: its private
/// future-event list, its block of routers, its Phase A scratch heap, and
/// the slot its epoch output is parked in between the Phase A barrier and
/// the coordinator's collection pass. Behind a [`Mutex`] only so pool
/// jobs and the coordinator's inline path can run the same code on it;
/// the epoch protocol guarantees every lock is uncontended (a shard is
/// touched by exactly one thread at a time, and the barrier orders the
/// hand-offs).
struct ShardSlot {
    fel: Fel<Ev>,
    base: usize,
    nodes: Vec<Option<BgpNode>>,
    local: BinaryHeap<Pending<Ev>>,
    out: Option<ShardEpochOut>,
}

/// One shard's Phase A output for one epoch.
struct ShardEpochOut {
    /// Walk index: one `(time, id, walk entry)` row per drained event, in
    /// the shard's drain (= local `(time, id)`) order.
    index: Vec<(SimTime, u64, CommitEv)>,
    /// Handler actions and trace buffers, in execution order.
    trace: EpochTrace,
    /// The shard FEL's head after the drain — cached so the coordinator's
    /// per-epoch `t0` scan never has to lock an unengaged shard (mail
    /// deliveries, the only other mutation, are tracked separately).
    next_peek: Option<SimTime>,
}

/// The whole of Phase A for one engaged shard: file the epoch's mailbox
/// chunks into the FEL, drain it to `epoch_end`, build the walk-index
/// rows, run the handlers, and park the output in the slot. Runs either
/// as a pool job or inline on the coordinator — same code, so the paths
/// cannot diverge.
fn run_shard_epoch(
    ctx: &ShardCtx<'_>,
    slot: &mut ShardSlot,
    mail: Vec<Vec<MailEntry>>,
    epoch_end: SimTime,
) {
    for chunk in mail {
        for (at, id, ev) in chunk {
            slot.fel.insert_allocated(at, EventId::from_u64(id), ev);
        }
    }
    let drained = slot.fel.drain_until(epoch_end);
    let mut index = Vec::with_capacity(drained.len());
    let mut batch = Vec::with_capacity(drained.len());
    for (at, id, ev) in drained {
        let key = id.as_u64();
        debug_assert!(key < LOCAL_KEY_BASE);
        index.push((
            at,
            key,
            CommitEv {
                node: owner(&ev),
                kind: commit_kind(&ev),
                dest: commit_dest(&ev),
            },
        ));
        batch.push((at, key, ev));
    }
    let ShardSlot {
        fel,
        base,
        nodes,
        local,
        out,
    } = slot;
    let trace = run_epoch_batch(ctx, *base, nodes, local, epoch_end, batch);
    *out = Some(ShardEpochOut {
        index,
        trace,
        next_peek: fel.peek_time(),
    });
}

/// Drains the event queue with `net.shards` shard-owned FELs on the
/// process-wide worker pool; externally indistinguishable from
/// `Network::pump`'s serial drain.
pub(crate) fn pump_sharded(net: &mut Network) {
    let debug_pump = std::env::var_os("BGPSIM_DEBUG_PUMP").is_some();
    let n = net.topo.num_routers();
    let shards = net.shards.min(n.max(1));
    let streams = net.commit_streams.clamp(1, shards);
    let lookahead = net.cfg.link_delay;
    debug_assert!(!lookahead.is_zero(), "sharded loop needs lookahead");

    // World state frozen for the duration of the pump.
    let alive: Vec<bool> = net.nodes.iter().map(Option::is_some).collect();
    let ctx = ShardCtx {
        topo: &net.topo,
        policy: net.cfg.policy,
        tiers: net.cfg.policy.then_some(&net.tiers[..]),
        alive: &alive,
        dead_links: &net.dead_links,
    };

    // Contiguous block partition of routers onto shards.
    let bounds: Vec<usize> = (0..=shards).map(|s| s * n / shards).collect();
    let mut shard_of = vec![0usize; n];
    for s in 0..shards {
        for node in &mut shard_of[bounds[s]..bounds[s + 1]] {
            *node = s;
        }
    }

    // Build the shard slots — router chunks plus a private FEL each, of
    // the same backend as the network's — and partition the central FEL
    // onto them: every pending event moves to its owner's shard under its
    // existing (time, id) key. The central list stays empty until the
    // pump ends; only its id/delivery accounting advances (in the walk).
    let partition_start = Instant::now();
    let fel_kind = net.sched.kind();
    let mut slots: Vec<Mutex<ShardSlot>> = Vec::with_capacity(shards);
    {
        let mut chunks: Vec<Vec<Option<BgpNode>>> = Vec::with_capacity(shards);
        let mut rest = std::mem::take(&mut net.nodes);
        for s in (0..shards).rev() {
            chunks.push(rest.split_off(bounds[s]));
        }
        chunks.reverse();
        debug_assert!(rest.is_empty());
        for (s, nodes) in chunks.into_iter().enumerate() {
            slots.push(Mutex::new(ShardSlot {
                fel: Fel::new(fel_kind),
                base: bounds[s],
                nodes,
                local: BinaryHeap::new(),
                out: None,
            }));
        }
    }
    // Events still pending across all shard FELs and mailboxes (debug
    // visibility only — never feeds back into simulation state).
    let mut live_pending: u64 = 0;
    for (at, id, ev) in net.sched.drain_all() {
        let s = shard_of[owner(&ev).index()];
        slots[s]
            .get_mut()
            .expect("slot mutex poisoned")
            .fel
            .insert_allocated(at, id, ev);
        live_pending += 1;
    }
    // Cached FEL heads, maintained by the epoch protocol so the per-epoch
    // t0 scan is pure arithmetic: a shard's head only changes when it is
    // engaged (drain + mail filing), and engagement refreshes the cache.
    let mut peeks: Vec<Option<SimTime>> = slots
        .iter_mut()
        .map(|slot| slot.get_mut().expect("slot mutex poisoned").fel.peek_time())
        .collect();
    let mut timings = ShardPhaseTimings::default();
    timings.drain_secs += partition_start.elapsed().as_secs_f64();

    // Undelivered mailbox chunks per destination shard, with the earliest
    // contained time — the only cross-shard state between epochs.
    let mut mailboxes: Vec<Vec<Vec<MailEntry>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut mail_min: Vec<Option<SimTime>> = vec![None; shards];
    // Parking slots for the parallel commit streams' outputs.
    let commit_outs: Vec<Mutex<Option<ApplyOut>>> =
        (0..streams).map(|_| Mutex::new(None)).collect();

    let link_delay = lookahead;
    let pool = crate::pool::global();
    // Phase A size predictor: the previous epoch's drained count (see
    // PHASE_A_PAR_MIN_OPS). Starts at 0 so the first epoch runs inline.
    let mut predicted_ops = 0usize;

    // One pool scope spans every epoch of the pump (and the pool itself
    // spans every pump in the process): an epoch costs condvar wakes, not
    // thread spawns or channel hops.
    pool.scope(|scope| {
        // Reused across epochs; both are fully drained by each commit.
        let mut traces: Vec<VecDeque<(Vec<Action>, Vec<NodeEvent>)>> =
            (0..n).map(|_| VecDeque::new()).collect();
        let mut replay: BinaryHeap<Pending<CommitEv>> = BinaryHeap::new();
        let mut engaged = vec![false; shards];

        loop {
            // The rump of the old serial drain: find the epoch start t0
            // over the cached FEL heads and mailbox minima, and mark the
            // shards with work before epoch_end as engaged.
            let scan_start = Instant::now();
            let mut t0: Option<SimTime> = None;
            for s in 0..shards {
                for cand in [peeks[s], mail_min[s]].into_iter().flatten() {
                    if t0.is_none_or(|t| cand < t) {
                        t0 = Some(cand);
                    }
                }
            }
            let Some(t0) = t0 else { break };
            let epoch_end = t0 + lookahead;
            for s in 0..shards {
                engaged[s] = peeks[s].is_some_and(|p| p < epoch_end)
                    || mail_min[s].is_some_and(|m| m < epoch_end);
            }
            timings.drain_secs += scan_start.elapsed().as_secs_f64();

            // Phase A: every engaged shard files its mail, drains its FEL
            // and runs its handlers — on the pool, or inline when the
            // predictor says the epoch is too small to pay for a wake.
            let epoch_start = Instant::now();
            let inline_phase_a = predicted_ops < PHASE_A_PAR_MIN_OPS;
            if inline_phase_a {
                timings.inline_phase_a_epochs += 1;
                for s in 0..shards {
                    if !engaged[s] {
                        continue;
                    }
                    let mail = std::mem::take(&mut mailboxes[s]);
                    let mut slot = slots[s].lock().expect("slot mutex poisoned");
                    run_shard_epoch(&ctx, &mut slot, mail, epoch_end);
                }
            } else {
                for (s, slot) in slots.iter().enumerate() {
                    if !engaged[s] {
                        continue;
                    }
                    let mail = std::mem::take(&mut mailboxes[s]);
                    scope.spawn(move || {
                        let mut slot = slot.lock().expect("slot mutex poisoned");
                        run_shard_epoch(&ctx, &mut slot, mail, epoch_end);
                    });
                }
                scope.wait();
            }
            // Collect in shard order: seed the walk's replay heap with
            // the index rows (real (time, id) keys), group traces per
            // node (a shard reports its nodes' traces in execution order,
            // so per-node FIFO order is preserved), refresh the cached
            // FEL heads, and retire the delivered mailboxes.
            let mut epoch_drained = 0usize;
            for s in 0..shards {
                if !engaged[s] {
                    continue;
                }
                let mut slot = slots[s].lock().expect("slot mutex poisoned");
                let out = slot
                    .out
                    .take()
                    .expect("engaged shard parked an epoch output");
                peeks[s] = out.next_peek;
                mail_min[s] = None;
                epoch_drained += out.index.len();
                for (at, key, item) in out.index {
                    replay.push(Pending { at, key, item });
                }
                for (node, actions, events) in out.trace {
                    traces[node.index()].push_back((actions, events));
                }
            }
            debug_assert!(epoch_drained > 0, "an epoch always drains its t0 event");
            live_pending -= epoch_drained as u64;
            predicted_ops = epoch_drained;
            timings.phase_a_secs += epoch_start.elapsed().as_secs_f64();
            let walk_start = Instant::now();

            // Phase B — the serial walk: replay the epoch in global
            // (time, id) order, applying only the order-dependent side
            // effects (clock, delivered count, real id allocation in
            // exactly serial order, activity clock) and binning each
            // event's recorded actions onto its destination's commit
            // stream.
            let delivered_base = net.sched.delivered_count();
            let mut stream_ops: Vec<Vec<ApplyOp>> = (0..streams).map(|_| Vec::new()).collect();
            let mut total_ops = 0usize;
            let mut plan_idx: u32 = 0;
            let mut popped: u64 = 0;
            let mut t_last = t0;
            let mut activity_at: Option<SimTime> = None;
            while let Some(Pending {
                at: t,
                item: CommitEv { node, kind, dest },
                ..
            }) = replay.pop()
            {
                popped += 1;
                t_last = t;
                if debug_pump && (delivered_base + popped).is_multiple_of(1_000_000) {
                    // The central FEL is empty while sharded; the pending
                    // count is what sits in shard FELs and mailboxes.
                    eprintln!(
                        "[pump] events={} simtime={t} pending={live_pending}",
                        delivered_base + popped,
                    );
                }
                let handled = match kind {
                    CommitKind::Activity | CommitKind::Timer | CommitKind::Silent => {
                        alive[node.index()]
                    }
                    CommitKind::PeerUp { peer } => ctx.session_alive(node, peer),
                };
                if !handled {
                    continue;
                }
                let (actions, events) = traces[node.index()]
                    .pop_front()
                    .expect("worker trace aligns with commit order");
                let mut activity = match kind {
                    CommitKind::Activity | CommitKind::PeerUp { .. } => true,
                    CommitKind::Timer => !actions.is_empty(),
                    CommitKind::Silent => false,
                };
                // Allocate this op's real ids in serial action order; the
                // commit stream re-derives them from id_base by replaying
                // the same rule.
                let mut id_base = 0u64;
                let mut id_seen = false;
                for action in &actions {
                    if let Action::Send { to, .. } = action {
                        activity = true;
                        // Sends to dead routers bump counters but never
                        // reach the scheduler — no id in serial either.
                        if alive[to.index()] {
                            let id = net.sched.alloc_id();
                            if !id_seen {
                                id_base = id.as_u64();
                                id_seen = true;
                            }
                        }
                    } else {
                        let at2 = follow_at(t, action);
                        let id = net.sched.alloc_id();
                        if !id_seen {
                            id_base = id.as_u64();
                            id_seen = true;
                        }
                        if at2 < epoch_end {
                            // Already executed on the worker; keep
                            // replaying under its real id.
                            let (kind2, dest2) = follow_commit(node, action);
                            replay.push(Pending {
                                at: at2,
                                key: id.as_u64(),
                                item: CommitEv {
                                    node,
                                    kind: kind2,
                                    dest: dest2,
                                },
                            });
                        }
                    }
                }
                if activity {
                    activity_at = Some(t);
                }
                if !actions.is_empty() || !events.is_empty() {
                    stream_ops[stream_of(dest, streams)].push(ApplyOp {
                        plan_idx,
                        t,
                        node,
                        id_base,
                        actions,
                        events,
                    });
                    total_ops += 1;
                }
                plan_idx += 1;
            }
            net.sched.mark_delivered_many(t_last, popped);
            if let Some(t) = activity_at {
                net.last_activity = t;
            }
            timings.phase_b_secs += walk_start.elapsed().as_secs_f64();
            let merge_start = Instant::now();

            // Apply the commit streams — on the worker pool when the
            // epoch is large enough to pay for the wake, inline
            // otherwise. Outputs are identical either way.
            let parallel = streams > 1 && total_ops >= COMMIT_PAR_MIN_OPS;
            let outs: Vec<ApplyOut> = if parallel {
                timings.parallel_commit_epochs += 1;
                for (k, ops) in stream_ops.into_iter().enumerate() {
                    if ops.is_empty() {
                        continue;
                    }
                    let out_slot = &commit_outs[k];
                    let alive = &alive;
                    let shard_of = &shard_of;
                    scope.spawn(move || {
                        let out = apply_ops(alive, shard_of, shards, link_delay, epoch_end, ops);
                        *out_slot.lock().expect("commit slot mutex poisoned") = Some(out);
                    });
                }
                scope.wait();
                commit_outs
                    .iter()
                    .map(|slot| {
                        slot.lock()
                            .expect("commit slot mutex poisoned")
                            .take()
                            .unwrap_or_else(|| ApplyOut::empty(shards))
                    })
                    .collect()
            } else {
                stream_ops
                    .into_iter()
                    .map(|ops| apply_ops(&alive, &shard_of, shards, link_delay, epoch_end, ops))
                    .collect()
            };

            // Deterministic merge. Counters are order-independent sums;
            // trace events go out in plan (= commit) order.
            let mut trace_iters = Vec::with_capacity(outs.len());
            let mut mails = Vec::with_capacity(outs.len());
            for out in outs {
                net.announcements += out.announcements;
                net.withdrawals += out.withdrawals;
                trace_iters.push(out.traced.into_iter().peekable());
                mails.push((out.mail, out.mail_min));
            }
            if !net.trace.is_off() {
                loop {
                    let mut best: Option<(u32, usize)> = None;
                    for (s, it) in trace_iters.iter_mut().enumerate() {
                        if let Some(&(idx, ..)) = it.peek() {
                            if best.is_none_or(|(b, _)| idx < b) {
                                best = Some((idx, s));
                            }
                        }
                    }
                    let Some((_, s)) = best else { break };
                    let (_, t, node, events) = trace_iters[s].next().expect("peeked entry exists");
                    for ev in events {
                        net.trace.record(t, node, ev);
                    }
                }
            }
            timings.merge_secs += merge_start.elapsed().as_secs_f64();

            // Mailbox exchange: route each stream's per-destination-shard
            // chunks into the destination mailboxes, stream-major. The
            // (stream, then id-ascending-within-chunk) order is fixed, so
            // the events a shard files next epoch arrive in a
            // deterministic sequence — and the walk's replay heap orders
            // them globally by (time, id) regardless. This replaces PR
            // 6's serial k-way `insert_allocated` merge into the central
            // FEL.
            let exchange_start = Instant::now();
            for (mail, mins) in mails {
                for (s, chunk) in mail.into_iter().enumerate() {
                    if chunk.is_empty() {
                        continue;
                    }
                    let m = mins[s].expect("non-empty mail chunk has a min time");
                    if mail_min[s].is_none_or(|cur| m < cur) {
                        mail_min[s] = Some(m);
                    }
                    live_pending += chunk.len() as u64;
                    mailboxes[s].push(chunk);
                }
            }
            timings.mailbox_exchange_secs += exchange_start.elapsed().as_secs_f64();
            timings.epochs += 1;
            debug_assert!(
                traces.iter().all(VecDeque::is_empty),
                "every recorded trace was consumed"
            );
        }
    });

    // Quiescent: every shard FEL and mailbox drained; reassemble the
    // node vec from the slots.
    debug_assert_eq!(live_pending, 0, "pump ends with no pending events");
    let mut nodes: Vec<Option<BgpNode>> = Vec::with_capacity(n);
    for slot in slots {
        let slot = slot.into_inner().expect("slot mutex poisoned");
        debug_assert!(
            slot.fel.is_empty() && slot.local.is_empty(),
            "shard FEL drained at quiescence"
        );
        nodes.extend(slot.nodes);
    }
    net.nodes = nodes;
    net.shard_timings.add(&timings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, SimConfig};
    use crate::scheme::Scheme;
    use bgpsim_topology::degree::SkewedSpec;
    use bgpsim_topology::generators::skewed_topology;
    use bgpsim_topology::region::FailureSpec;
    use bgpsim_topology::{AsId, Point, Router, Topology};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_topo(seed: u64, n: usize) -> Topology {
        let mut rng = SmallRng::seed_from_u64(seed);
        skewed_topology(n, &SkewedSpec::seventy_thirty(), &mut rng).unwrap()
    }

    /// Full failure experiment under a given shard count, with the
    /// parallel commit forced on (one stream per shard) so every sharded
    /// test exercises the destination-partitioned path even on one core.
    fn run_with_shards(shards: usize) -> (crate::RunStats, Network) {
        let topo = small_topo(42, 30);
        let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
        cfg.shards = Some(shards);
        cfg.commit_streams = Some(shards);
        let mut net = Network::new(topo, cfg);
        let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
        (stats, net)
    }

    fn assert_networks_identical(a: &Network, b: &Network, what: &str) {
        assert_eq!(a.now(), b.now(), "{what}: clock diverged");
        assert_eq!(
            a.sched.delivered_count(),
            b.sched.delivered_count(),
            "{what}: delivered count diverged"
        );
        assert_eq!(
            a.sched.scheduled_count(),
            b.sched.scheduled_count(),
            "{what}: scheduled count diverged"
        );
        for r in a.topology().router_ids() {
            match (a.node(r), b.node(r)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.loc_rib(), y.loc_rib(), "{what}: Loc-RIB of {r} diverged");
                    assert_eq!(x.stats(), y.stats(), "{what}: node stats of {r} diverged");
                }
                _ => panic!("{what}: aliveness of {r} diverged"),
            }
        }
    }

    #[test]
    fn sharded_matches_serial_across_shard_counts() {
        let (serial_stats, serial_net) = run_with_shards(1);
        for shards in [2, 3, 7] {
            let (stats, net) = run_with_shards(shards);
            assert_eq!(stats, serial_stats, "RunStats diverged at {shards} shards");
            assert_networks_identical(&net, &serial_net, &format!("{shards} shards"));
        }
    }

    #[test]
    fn parallel_commit_path_runs_and_matches_inline() {
        // Same workload, same shard count, different stream counts — the
        // commit-stream knob must be invisible in every observable, and
        // the multi-stream run must actually take the worker-pool path.
        let run = |streams: usize| {
            let topo = small_topo(42, 30);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
            cfg.shards = Some(4);
            cfg.commit_streams = Some(streams);
            let mut net = Network::new(topo, cfg);
            let stats = net.run_failure_experiment(&FailureSpec::CenterFraction(0.10));
            (stats, net)
        };
        let (inline_stats, inline_net) = run(1);
        assert_eq!(
            inline_net.shard_phase_timings().parallel_commit_epochs,
            0,
            "one stream must apply inline"
        );
        for streams in [2, 4] {
            let (stats, net) = run(streams);
            assert_eq!(
                stats, inline_stats,
                "RunStats diverged at {streams} streams"
            );
            assert_networks_identical(&net, &inline_net, &format!("{streams} streams"));
            let t = net.shard_phase_timings();
            assert!(
                t.parallel_commit_epochs > 0,
                "{streams} streams: no epoch took the parallel commit path"
            );
            assert!(t.epochs >= t.parallel_commit_epochs);
            assert!(t.total_secs() > 0.0, "phase timings were accumulated");
            // The serial remainder phases are measured, not just the big
            // parallel ones: partition/t0 scan and the mailbox exchange
            // both ran on every epoch of a multi-epoch convergence.
            assert!(t.drain_secs > 0.0, "drain/partition phase was timed");
            assert!(
                t.mailbox_exchange_secs > 0.0,
                "mailbox exchange phase was timed"
            );
            let f = t.serial_fraction();
            assert!((0.0..1.0).contains(&f), "serial fraction {f} out of range");
        }
    }

    #[test]
    fn epoch_boundary_deliveries_match_serial() {
        // Regression: with a zero origination window, every message lands
        // exactly on an epoch boundary (t0 + link_delay == epoch_end), the
        // half-open-window edge case — it must be queued into the next
        // epoch and delivered in serial order, including the event-id
        // tie-break between same-instant deliveries from different peers.
        let build = |shards: usize| {
            let routers = (0..4)
                .map(|i| Router {
                    as_id: AsId::new(i),
                    pos: Point::new(i as f64, 0.0),
                })
                .collect();
            // A diamond 0–{1,2}–3: router 3 hears every prefix from both 1
            // and 2 at the same instant.
            let topo = Topology::new(
                routers,
                vec![
                    (RouterId::new(0), RouterId::new(1)),
                    (RouterId::new(0), RouterId::new(2)),
                    (RouterId::new(1), RouterId::new(3)),
                    (RouterId::new(2), RouterId::new(3)),
                ],
            )
            .unwrap();
            let mut cfg = SimConfig::new(99);
            cfg.origination_window = SimDuration::ZERO;
            cfg.shards = Some(shards);
            cfg.commit_streams = Some(shards);
            Network::new(topo, cfg)
        };
        let mut serial = build(1);
        serial.run_initial_convergence();
        for shards in [2, 4] {
            let mut net = build(shards);
            net.run_initial_convergence();
            assert_networks_identical(&net, &serial, &format!("{shards} shards"));
        }
    }

    #[test]
    fn link_failure_and_revival_match_serial() {
        // Covers the PeerDown/PeerUp commit arms: fail a link, quiesce,
        // then revive a router region.
        let run = |shards: usize| {
            let topo = small_topo(7, 24);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 31);
            cfg.shards = Some(shards);
            cfg.commit_streams = Some(shards);
            let mut net = Network::new(topo, cfg);
            net.run_initial_convergence();
            let edges: Vec<_> = net.topology().edges()[..3].to_vec();
            net.inject_link_failure(&edges);
            let s1 = net.run_to_quiescence();
            let failed = net.inject_failure(&FailureSpec::CenterFraction(0.10));
            let s2 = net.run_to_quiescence();
            net.revive_routers(&failed);
            let s3 = net.run_to_quiescence();
            (s1, s2, s3, net)
        };
        let (a1, a2, a3, serial) = run(1);
        let (b1, b2, b3, sharded) = run(3);
        assert_eq!(a1, b1, "link-failure stats diverged");
        assert_eq!(a2, b2, "region-failure stats diverged");
        assert_eq!(a3, b3, "revival stats diverged");
        assert_networks_identical(&sharded, &serial, "3 shards");
    }

    #[test]
    fn traces_byte_identical_across_shard_counts() {
        // The tentpole claim of the trace layer: the JSONL byte stream is
        // a pure function of the simulation, independent of both the
        // shard count and the commit-stream count.
        let run = |shards: usize, streams: usize| {
            let topo = small_topo(42, 30);
            let mut cfg = SimConfig::from_scheme(&Scheme::constant_mrai(0.5), 777);
            cfg.shards = Some(shards);
            cfg.commit_streams = Some(streams);
            let mut net = Network::new(topo, cfg);
            net.run_initial_convergence();
            net.inject_failure(&FailureSpec::CenterFraction(0.10));
            net.set_trace_sink(crate::trace::TraceSink::memory(1 << 22));
            let stats = net.run_to_quiescence();
            let events = net.take_trace_events();
            assert!(!events.is_empty(), "re-convergence must record events");
            (stats, crate::trace::to_jsonl(&events))
        };
        let (serial_stats, serial_jsonl) = run(1, 1);
        for (shards, streams) in [(2, 1), (2, 2), (3, 3), (4, 2)] {
            let (stats, jsonl) = run(shards, streams);
            assert_eq!(
                stats, serial_stats,
                "RunStats diverged at {shards} shards / {streams} streams"
            );
            assert_eq!(
                jsonl, serial_jsonl,
                "trace bytes diverged at {shards} shards / {streams} streams"
            );
        }
    }

    #[test]
    fn small_epochs_run_phase_a_inline() {
        // The origination trickle and the post-storm tail both produce
        // epochs with a handful of events — those must take the inline
        // path, and bigger epochs must still reach the worker pool. The
        // identity of the two paths is pinned by every other test in this
        // module (they all run epochs on both sides of the threshold).
        let (_, net) = run_with_shards(2);
        let t = net.shard_phase_timings();
        assert!(
            t.inline_phase_a_epochs > 0,
            "no epoch was small enough for the inline Phase A path"
        );
        assert!(
            t.inline_phase_a_epochs < t.epochs,
            "no epoch was big enough for the worker-pool path"
        );
    }

    #[test]
    fn shard_count_resolution() {
        let topo = small_topo(1, 10);
        let mut cfg = SimConfig::new(1);
        cfg.shards = Some(4);
        assert_eq!(Network::new(topo, cfg).shard_count(), 4);
    }

    #[test]
    fn commit_dest_is_prefix_major() {
        use bgpsim_bgp::msg::Prefix;
        let r = RouterId::new(3);
        let p = Prefix::new(9);
        assert_eq!(
            commit_dest(&Ev::Originate { node: r, prefix: p }),
            9,
            "originations key by prefix"
        );
        assert_eq!(commit_dest(&Ev::ProcDone { node: r }), 3, "no prefix: node");
        assert_eq!(
            commit_dest(&Ev::MraiExpiry {
                node: r,
                peer: RouterId::new(1),
                prefix: Some(p),
                gen: 0
            }),
            9
        );
        assert_eq!(
            commit_dest(&Ev::MraiExpiry {
                node: r,
                peer: RouterId::new(1),
                prefix: None,
                gen: 0
            }),
            3,
            "per-peer MRAI keys by node"
        );
    }

    #[test]
    fn stream_binning_balances_strided_dests() {
        // Full-table bursts withdraw prefixes at a fixed stride (the per-AS
        // block size). `dest % streams` aliases whenever the stride shares a
        // factor with the stream count — e.g. stride 8 into 4 streams puts
        // *every* op in one stream. The mix must keep occupancy roughly
        // uniform for strides and stream counts with common factors.
        for &(stride, streams) in &[(8u32, 4usize), (6, 3), (10, 5), (4, 8), (37, 37)] {
            let n = 4096u32;
            let mut occ = vec![0usize; streams];
            for i in 0..n {
                occ[stream_of(i * stride, streams)] += 1;
            }
            let ideal = n as usize / streams;
            let max = *occ.iter().max().unwrap();
            let min = *occ.iter().min().unwrap();
            assert!(
                max <= ideal * 2 && min >= ideal / 2,
                "stride {stride} into {streams} streams skewed: {occ:?}"
            );
        }
    }

    #[test]
    fn stream_binning_is_total_and_stable() {
        // Every dest maps into range, and the mapping is a pure function
        // (determinism depends on it being input-only).
        for streams in 1..=7usize {
            for dest in (0..200u32).chain([u32::MAX - 3, u32::MAX]) {
                let s = stream_of(dest, streams);
                assert!(s < streams);
                assert_eq!(s, stream_of(dest, streams));
            }
        }
    }
}
