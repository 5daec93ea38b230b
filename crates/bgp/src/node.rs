//! The BGP router engine.
//!
//! [`BgpNode`] is a *sans-io* state machine: event handlers take the current
//! simulation time and return [`Action`]s for the driver to execute. The
//! processing model is a single server — one batch of queued updates is in
//! service at a time, for the sum of the per-update U(proc_min, proc_max)
//! delays — which is precisely the overload mechanism the paper studies:
//! while the server is behind, the MRAI timer can expire and advertise a
//! route that queued-but-unprocessed updates are about to invalidate,
//! generating extra (invalid) updates downstream (§2).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bgpsim_des::rng::{jittered, uniform_duration};
use bgpsim_des::{SimDuration, SimTime};
use bgpsim_topology::{AsId, RouterId};
use rand::rngs::SmallRng;

use crate::config::{MraiPolicy, NodeConfig};
use crate::damping::DampingState;
use crate::decision::{select_best, select_incremental, Incremental};
use crate::dynmrai::DynMraiController;
use crate::mrai::{MraiScope, MraiTimer};
use crate::msg::{Prefix, UpdateAction, UpdateMsg};
use crate::path::AsPath;
use crate::policy::{may_export, PolicyMode, Relationship, RANK_PEER};
use crate::queue::{InputQueue, WorkItem};
#[cfg(any(test, feature = "dense-rib"))]
use crate::rib::DenseAdjRibOut;
use crate::rib::{AdjRibOut, EngineRibIn, LocRib, NextHop, RouteEntry, Selected};
use crate::stats::NodeStats;
use crate::trace::NodeEvent;

/// An instruction the node hands back to the simulation driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit `msg` to peer `to` (the driver adds the link delay).
    Send {
        /// Destination router.
        to: RouterId,
        /// The message.
        msg: UpdateMsg,
    },
    /// The node's processor is now busy for `duration`; deliver a
    /// processing-completion event afterwards.
    StartProcessing {
        /// Busy period (sum of the batch's per-update delays).
        duration: SimDuration,
    },
    /// Start an MRAI timer; deliver an expiry event carrying the same
    /// `(peer, prefix, gen)` after `delay`.
    StartMrai {
        /// The peer whose timer this is.
        peer: RouterId,
        /// `None` in per-peer scope; the destination in per-destination
        /// scope.
        prefix: Option<Prefix>,
        /// The (already jittered) interval.
        delay: SimDuration,
        /// Generation stamp; stale expiries are ignored.
        gen: u64,
    },
    /// Start a route-flap-damping reuse timer; deliver a reuse event
    /// carrying the same `(peer, prefix, gen)` after `delay`.
    StartReuse {
        /// The peer whose route was suppressed.
        peer: RouterId,
        /// The suppressed destination.
        prefix: Prefix,
        /// When to re-evaluate the penalty.
        delay: SimDuration,
        /// Suppression generation; stale events are ignored.
        gen: u64,
    },
}

/// Per-peer session state.
///
/// The Adj-RIB-Out is delta-encoded against the Loc-RIB (see
/// [`AdjRibOut`]): its pending set is also the dirty set — a prefix is
/// pending exactly when an unflushed Loc-RIB change may have outdated what
/// the peer last heard, and the entry freezes that last-heard path.
#[derive(Clone, Debug)]
struct PeerSession {
    ibgp: bool,
    /// The neighbor's business relationship to us (policy mode only).
    rel: Option<Relationship>,
    timer: MraiTimer,
    dest_timers: BTreeMap<Prefix, MraiTimer>,
    rib_out: AdjRibOut,
    /// Dense materialized mirror of what was actually sent, asserted
    /// against every frozen value the delta representation reports —
    /// the engine-level half of the dense-vs-compact equivalence proof.
    #[cfg(any(test, feature = "dense-rib"))]
    shadow_out: DenseAdjRibOut,
}

impl PeerSession {
    fn new(ibgp: bool, rel: Option<Relationship>) -> PeerSession {
        PeerSession {
            ibgp,
            rel,
            timer: MraiTimer::new(),
            dest_timers: BTreeMap::new(),
            rib_out: AdjRibOut::new(),
            #[cfg(any(test, feature = "dense-rib"))]
            shadow_out: DenseAdjRibOut::new(),
        }
    }
}

/// Flat sorted peer table: sessions stored contiguously, ordered by peer
/// id. Point lookups binary-search; iteration is ascending by
/// construction — the order every flush and export sweep relies on.
/// Replaces a `BTreeMap` plus a separate id `Vec`: one allocation, no
/// tree-node overhead, and snapshot clones are a flat `Vec` copy.
#[derive(Clone, Debug, Default)]
struct PeerTable {
    sessions: Vec<(RouterId, PeerSession)>,
}

impl PeerTable {
    fn idx(&self, peer: RouterId) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&peer, |&(p, _)| p)
    }

    fn contains(&self, peer: RouterId) -> bool {
        self.idx(peer).is_ok()
    }

    fn get(&self, peer: RouterId) -> Option<&PeerSession> {
        self.idx(peer).ok().map(|i| &self.sessions[i].1)
    }

    fn get_mut(&mut self, peer: RouterId) -> Option<&mut PeerSession> {
        match self.idx(peer) {
            Ok(i) => Some(&mut self.sessions[i].1),
            Err(_) => None,
        }
    }

    /// Inserts (or replaces) the session for `peer`, keeping order.
    fn insert(&mut self, peer: RouterId, sess: PeerSession) {
        match self.idx(peer) {
            Ok(i) => self.sessions[i].1 = sess,
            Err(i) => self.sessions.insert(i, (peer, sess)),
        }
    }

    fn remove(&mut self, peer: RouterId) -> Option<PeerSession> {
        self.idx(peer).ok().map(|i| self.sessions.remove(i).1)
    }

    fn len(&self) -> usize {
        self.sessions.len()
    }

    /// The `i`-th peer id in ascending order (stable across flushes, which
    /// never add or remove peers — the index loops rely on this).
    fn id_at(&self, i: usize) -> RouterId {
        self.sessions[i].0
    }

    fn ids(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.sessions.iter().map(|&(p, _)| p)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (RouterId, &mut PeerSession)> {
        self.sessions.iter_mut().map(|(p, s)| (*p, s))
    }

    /// Heap bytes committed to session storage (table capacity plus each
    /// session's own allocations).
    fn heap_bytes(&self) -> usize {
        self.sessions.capacity() * std::mem::size_of::<(RouterId, PeerSession)>()
            + self
                .sessions
                .iter()
                .map(|(_, s)| {
                    s.rib_out.heap_bytes()
                        + s.dest_timers.len()
                            * (std::mem::size_of::<(Prefix, MraiTimer)>()
                                + std::mem::size_of::<usize>())
                })
                .sum::<usize>()
    }
}

/// Memoized prepend results: parent storage address → (parent clone,
/// prepended child). See [`BgpNode::prepended_in`].
type PrependCache = RefCell<HashMap<usize, (AsPath, AsPath)>>;

/// A simulated BGP router.
///
/// # Example
///
/// Two routers in different ASes; drive the exchange by hand:
///
/// ```
/// use bgpsim_bgp::{Action, BgpNode, NodeConfig, Prefix};
/// use bgpsim_des::SimTime;
/// use bgpsim_topology::{AsId, RouterId};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let cfg = NodeConfig::default();
/// let mut a = BgpNode::new(RouterId::new(0), AsId::new(0), cfg.clone(),
///                          SmallRng::seed_from_u64(1));
/// a.add_peer(RouterId::new(1), false);
/// let actions = a.originate(SimTime::ZERO, Prefix::new(0));
/// assert!(actions.iter().any(|act| matches!(act, Action::Send { .. })));
/// ```
#[derive(Clone, Debug)]
pub struct BgpNode {
    id: RouterId,
    as_id: AsId,
    own_prefixes: BTreeSet<Prefix>,
    peers: PeerTable,
    rib_in: EngineRibIn,
    loc_rib: LocRib,
    queue: InputQueue,
    in_service: Vec<WorkItem>,
    /// Shared, refcounted configuration: the network builds one allocation
    /// per distinct config (the per-network arena) and every node — and
    /// every snapshot fork — points at it.
    cfg: Arc<NodeConfig>,
    dyn_ctrl: Option<DynMraiController>,
    /// Flap-damping state per (peer, prefix) — only populated when damping
    /// is configured.
    damp: BTreeMap<(RouterId, Prefix), DampingState>,
    /// Monotonic suppression-generation source. Damping state dies with
    /// its session ([`BgpNode::on_peer_down`]); a per-state counter would
    /// restart at zero when the session re-forms and the same
    /// (peer, prefix) gets suppressed again, so a reuse timer still in
    /// flight from the torn-down state could alias the new suppression
    /// and release it prematurely (a phantom re-advertisement of the
    /// parked route). Generations drawn from a counter that survives
    /// teardown keep stale timers permanently mismatched.
    damp_next_gen: u64,
    /// The latest route state received while suppressed (`None` =
    /// withdrawn); applied to the Adj-RIB-In at release time.
    suppressed_routes: BTreeMap<(RouterId, Prefix), Option<RouteEntry>>,
    /// Memoized `path.prepend(self.as_id)` results, keyed by the parent
    /// path's storage address. The parent clone in the value keeps that
    /// allocation (and so the key) alive and unambiguous. `RefCell`
    /// because [`BgpNode::path_towards`] computes exports through `&self`.
    prepend_cache: PrependCache,
    rng: SmallRng,
    stats: NodeStats,
    /// Trace-event buffer: `Some` while tracing is on. Handlers push
    /// observations here; the driver drains after each handler call.
    /// `None` keeps the off cost to one branch per hook site.
    trace: Option<Vec<NodeEvent>>,
}

impl BgpNode {
    /// Creates a router with no peers and no routes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`NodeConfig::validate`]).
    pub fn new(id: RouterId, as_id: AsId, cfg: NodeConfig, rng: SmallRng) -> BgpNode {
        BgpNode::with_shared_config(id, as_id, Arc::new(cfg), rng)
    }

    /// Like [`BgpNode::new`], but sharing an already-allocated config.
    /// The network deduplicates configurations through this: every node
    /// built from the same settings holds the same allocation, and
    /// snapshot forks keep sharing it (see
    /// [`BgpNode::shares_config_allocation`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`NodeConfig::validate`]).
    pub fn with_shared_config(
        id: RouterId,
        as_id: AsId,
        cfg: Arc<NodeConfig>,
        rng: SmallRng,
    ) -> BgpNode {
        cfg.validate();
        let dyn_ctrl = match &cfg.mrai {
            MraiPolicy::Dynamic(d) => Some(DynMraiController::new(d.clone())),
            MraiPolicy::Constant(_) => None,
        };
        let queue = InputQueue::new(cfg.queue);
        BgpNode {
            id,
            as_id,
            own_prefixes: BTreeSet::new(),
            peers: PeerTable::default(),
            rib_in: EngineRibIn::new(),
            loc_rib: LocRib::new(),
            queue,
            in_service: Vec::new(),
            cfg,
            dyn_ctrl,
            damp: BTreeMap::new(),
            damp_next_gen: 0,
            suppressed_routes: BTreeMap::new(),
            prepend_cache: RefCell::new(HashMap::new()),
            rng,
            stats: NodeStats::default(),
            trace: None,
        }
    }

    /// This router's id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// This router's AS.
    pub fn as_id(&self) -> AsId {
        self.as_id
    }

    /// Registers a BGP session with `peer` (`ibgp` if both routers share an
    /// AS). Call before the simulation starts.
    pub fn add_peer(&mut self, peer: RouterId, ibgp: bool) {
        self.register_peer(peer, PeerSession::new(ibgp, None));
    }

    /// Registers an eBGP session with a business relationship (used when
    /// [`PolicyMode::GaoRexford`] is configured).
    pub fn add_peer_with_relationship(&mut self, peer: RouterId, ibgp: bool, rel: Relationship) {
        self.register_peer(peer, PeerSession::new(ibgp, Some(rel)));
    }

    fn register_peer(&mut self, peer: RouterId, sess: PeerSession) {
        self.peers.insert(peer, sess);
    }

    /// The business relationship of the session with `peer` (`None` for
    /// iBGP sessions, when policies are off, or when no session is up).
    pub fn peer_relationship(&self, peer: RouterId) -> Option<Relationship> {
        self.peers.get(peer)?.rel
    }

    /// Ids of current peers, ascending.
    pub fn peer_ids(&self) -> Vec<RouterId> {
        self.peers.ids().collect()
    }

    /// Read access to the Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Read access to the Adj-RIB-In.
    pub fn rib_in(&self) -> &EngineRibIn {
        &self.rib_in
    }

    /// Whether this node shares its config allocation with `other` — true
    /// for nodes the network built from the same configuration and for
    /// snapshot forks, which must keep sharing rather than deep-copy.
    pub fn shares_config_allocation(&self, other: &BgpNode) -> bool {
        Arc::ptr_eq(&self.cfg, &other.cfg)
    }

    /// Approximate heap bytes committed to this node's routing state:
    /// Adj-RIB-In rows, the Loc-RIB table, per-peer sessions (including
    /// delta Adj-RIB-Out entries), and the input queue. Capacity, not
    /// just live entries — what the memory benchmark charges per node.
    pub fn rib_heap_bytes(&self) -> usize {
        self.rib_in.heap_bytes()
            + self.loc_rib.heap_bytes()
            + self.peers.heap_bytes()
            + self.queue.heap_bytes()
            + self.in_service.capacity() * std::mem::size_of::<WorkItem>()
    }

    /// Routes this node currently stores (Adj-RIB-In entries plus
    /// installed best routes) — the denominator of the bytes-per-route
    /// memory metric.
    pub fn route_count(&self) -> usize {
        self.rib_in.len() + self.loc_rib.len()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &NodeStats {
        self.stats_with_queue()
    }

    fn stats_with_queue(&self) -> &NodeStats {
        &self.stats
    }

    /// Zeroes the counters, including the queue's stale-deletion and peak
    /// trackers (done after initial convergence so only post-failure
    /// activity is measured).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.queue.reset_counters();
    }

    /// Switches this node to a constant MRAI from now on (used by the
    /// oracle failure-size-aware scheme: the paper's future-work item of
    /// "accurately and quickly setting the MRAI consistent with the extent
    /// of failure"). Running timers are unaffected; the new value applies
    /// from the next timer start, like the dynamic scheme's level changes.
    pub fn set_constant_mrai(&mut self, mrai: SimDuration) {
        // Copy-on-write: this node forks its (possibly shared) config;
        // everyone else keeps the original allocation.
        Arc::make_mut(&mut self.cfg).mrai = MraiPolicy::Constant(mrai);
        self.dyn_ctrl = None;
    }

    /// Stale updates the batching discipline deleted unprocessed.
    pub fn stale_deleted(&self) -> u64 {
        self.queue.deleted_stale()
    }

    /// Largest input-queue length observed.
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// Updates waiting to be processed (excluding the batch in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a batch is currently in service.
    pub fn is_busy(&self) -> bool {
        !self.in_service.is_empty()
    }

    /// Current dynamic-MRAI level, if the node runs the dynamic scheme.
    pub fn dynamic_level(&self) -> Option<usize> {
        self.dyn_ctrl.as_ref().map(DynMraiController::level)
    }

    /// Routes currently suppressed by flap damping.
    pub fn suppressed_count(&self) -> usize {
        self.damp.values().filter(|s| s.is_suppressed()).count()
    }

    /// Turns handler-level trace recording on or off (see the [`trace`]
    /// module). Turning it off discards any undrained events.
    ///
    /// [`trace`]: crate::trace
    pub fn set_tracing(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether trace recording is on.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the buffered trace events in recording order, keeping the
    /// buffer's capacity (the driver calls this after every handler).
    pub fn drain_trace(&mut self) -> impl Iterator<Item = NodeEvent> + '_ {
        self.trace
            .as_mut()
            .map(|b| b.drain(..))
            .into_iter()
            .flatten()
    }

    #[inline]
    fn trace_push(&mut self, ev: NodeEvent) {
        if let Some(buf) = &mut self.trace {
            buf.push(ev);
        }
    }

    /// Records the stale updates a queue operation deleted since `before`.
    #[inline]
    fn trace_stale(&mut self, before: u64) {
        if self.trace.is_some() {
            let count = self.queue.deleted_stale() - before;
            if count > 0 {
                self.trace_push(NodeEvent::StaleDeleted { count });
            }
        }
    }

    /// Records the queue depth after a queue-affecting handler.
    #[inline]
    fn trace_depth(&mut self) {
        if self.trace.is_some() {
            let ev = NodeEvent::QueueDepth {
                queued: self.queue.len() as u32,
                in_service: self.in_service.len() as u32,
            };
            self.trace_push(ev);
        }
    }

    /// Originates `prefix` locally: it becomes one of this node's own
    /// prefixes, is installed in the Loc-RIB and advertised to every peer.
    /// A node may originate any number of prefixes.
    pub fn originate(&mut self, now: SimTime, prefix: Prefix) -> Vec<Action> {
        // Freeze before the install: the frozen values must capture what
        // each peer last heard, i.e. the export of the *pre-change* Loc-RIB.
        self.freeze_out_all(prefix);
        self.own_prefixes.insert(prefix);
        self.loc_rib.install(prefix, Selected::local());
        self.stats.best_changes += 1;
        self.trace_push(NodeEvent::BestChanged {
            prefix,
            path_len: Some(0),
        });
        self.flush_all(now)
    }

    /// Withdraws a locally originated `prefix` — the inverse of
    /// [`originate`](Self::originate). The zero-hop local route leaves the
    /// Loc-RIB, the best learned route (if any) takes over, and every peer
    /// hears the change (withdrawal or replacement) subject to MRAI. A
    /// no-op if the prefix is not currently originated here.
    pub fn withdraw_origin(&mut self, now: SimTime, prefix: Prefix) -> Vec<Action> {
        if !self.own_prefixes.remove(&prefix) {
            return Vec::new();
        }
        // Freeze before the change so the frozen values capture what each
        // peer last heard (same ordering rule as `originate`).
        self.freeze_out_all(prefix);
        // The local route bypassed the decision process entirely; with it
        // gone a full candidate rescan picks the successor.
        let new = select_best(prefix, &self.rib_in);
        let path_len = new.as_ref().map(|sel| sel.path.len() as u32);
        match new {
            Some(sel) => {
                self.loc_rib.install(prefix, sel);
            }
            None => {
                self.loc_rib.remove(prefix);
            }
        }
        self.stats.best_changes += 1;
        self.trace_push(NodeEvent::BestChanged { prefix, path_len });
        self.flush_all(now)
    }

    /// Handles an UPDATE arriving from `from`.
    pub fn on_update(&mut self, now: SimTime, from: RouterId, msg: UpdateMsg) -> Vec<Action> {
        self.stats.updates_received += 1;
        if self.trace.is_some() {
            self.trace_push(NodeEvent::Received {
                from,
                prefix: msg.prefix,
                advertise: msg.action.is_advertise(),
            });
        }
        if !self.peers.contains(from) {
            // Session already torn down; the message is lost.
            return Vec::new();
        }
        if let Some(ctrl) = &mut self.dyn_ctrl {
            ctrl.note_update_received();
        }
        let stale_before = self.queue.deleted_stale();
        self.queue.push(WorkItem::Update { from, msg });
        self.trace_stale(stale_before);
        let actions = self.maybe_start_processing(now);
        self.trace_depth();
        actions
    }

    /// Handles the completion of the batch in service.
    pub fn on_proc_done(&mut self, now: SimTime) -> Vec<Action> {
        let mut batch = std::mem::take(&mut self.in_service);
        debug_assert!(
            !batch.is_empty(),
            "processing completed with nothing in service"
        );
        let mut damping_actions: Vec<Action> = Vec::new();
        let mut changed: BTreeSet<Prefix> = BTreeSet::new();
        if batch.len() == 1 {
            // FIFO service (and most batched service) completes one item;
            // skip the grouping machinery entirely.
            let item = batch.pop().expect("length checked");
            self.stats.updates_processed += 1;
            let (prefix, peer) = (item.prefix(), item.peer());
            self.trace_push(NodeEvent::Processed { peer, prefix });
            damping_actions.extend(self.apply_item(now, item));
            if self.run_decision(prefix, &[peer]) {
                changed.insert(prefix);
            }
        } else {
            // Per affected prefix, the peers whose Adj-RIB-In entries this
            // batch may touch — the incremental decision process only has
            // to compare these against the installed best.
            let mut affected: BTreeMap<Prefix, Vec<RouterId>> = BTreeMap::new();
            for item in batch {
                self.stats.updates_processed += 1;
                self.trace_push(NodeEvent::Processed {
                    peer: item.peer(),
                    prefix: item.prefix(),
                });
                let touched = affected.entry(item.prefix()).or_default();
                if !touched.contains(&item.peer()) {
                    touched.push(item.peer());
                }
                damping_actions.extend(self.apply_item(now, item));
            }
            for (prefix, touched) in &affected {
                if self.run_decision(*prefix, touched) {
                    changed.insert(*prefix);
                }
            }
        }
        let mut actions = damping_actions;
        if self.cfg.expedite_improvements && !changed.is_empty() {
            actions.extend(self.expedite_flush(now, &changed));
        }
        actions.extend(self.flush_all(now));
        actions.extend(self.maybe_start_processing(now));
        self.trace_depth();
        actions
    }

    /// Deshpande & Sikdar's timer-cancelling scheme: when a change would
    /// *improve* (shorten or create) the route a peer holds from us, cancel
    /// that peer's running MRAI timer and send immediately.
    fn expedite_flush(&mut self, now: SimTime, changed: &BTreeSet<Prefix>) -> Vec<Action> {
        let mut actions = Vec::new();
        for i in 0..self.peers.len() {
            let peer = self.peers.id_at(i);
            let improving: Vec<Prefix> = changed
                .iter()
                .copied()
                .filter(|&p| self.improves(peer, p))
                .collect();
            if improving.is_empty() {
                continue;
            }
            let sess = self.peers.get_mut(peer).expect("peer exists");
            let mut cancelled = false;
            match self.cfg.mrai_scope {
                MraiScope::PerPeer => {
                    if sess.timer.is_running() {
                        sess.timer.cancel();
                        cancelled = true;
                    }
                }
                MraiScope::PerDestination => {
                    for p in &improving {
                        if let Some(t) = sess.dest_timers.get_mut(p) {
                            if t.is_running() {
                                t.cancel();
                                cancelled = true;
                            }
                        }
                    }
                }
            }
            if cancelled {
                actions.extend(self.flush_peer(now, peer));
            }
        }
        actions
    }

    /// Whether what we would now send `peer` for `prefix` improves on what
    /// they last heard from us (shorter path, or a route where they hold
    /// none).
    fn improves(&self, peer: RouterId, prefix: Prefix) -> bool {
        let Some(sess) = self.peers.get(peer) else {
            return false;
        };
        // What the peer last heard: the frozen value when pending; the
        // current export otherwise (mirror invariant) — in which case
        // nothing can improve on itself.
        match (self.path_towards(peer, prefix), sess.rib_out.frozen(prefix)) {
            (Some((new, _)), Some(Some(old))) => new.len() < old.len(),
            (Some(_), Some(None)) => true,
            _ => false,
        }
    }

    /// Handles an MRAI expiry event (ignores stale generations and dead
    /// peers).
    pub fn on_mrai_expiry(
        &mut self,
        now: SimTime,
        peer: RouterId,
        prefix: Option<Prefix>,
        gen: u64,
    ) -> Vec<Action> {
        let Some(sess) = self.peers.get_mut(peer) else {
            return Vec::new();
        };
        match prefix {
            None => {
                if !sess.timer.expire(gen) {
                    return Vec::new();
                }
                self.trace_push(NodeEvent::MraiExpired { peer, prefix: None });
                self.flush_peer(now, peer)
            }
            Some(p) => {
                let live = sess
                    .dest_timers
                    .get_mut(&p)
                    .map(|t| t.expire(gen))
                    .unwrap_or(false);
                if !live {
                    return Vec::new();
                }
                self.trace_push(NodeEvent::MraiExpired {
                    peer,
                    prefix: Some(p),
                });
                self.flush_peer(now, peer)
            }
        }
    }

    /// Handles the (re-)establishment of a session with `peer`: registers
    /// it and schedules the initial table exchange — every Loc-RIB route is
    /// marked dirty towards the new peer, exactly like a real BGP session
    /// coming up (RFC 1771 §3: "initially, the entire BGP routing table is
    /// exchanged"). Export filters (split horizon, policies) apply as
    /// usual when the routes are emitted.
    pub fn on_peer_up(
        &mut self,
        now: SimTime,
        peer: RouterId,
        ibgp: bool,
        rel: Option<Relationship>,
    ) -> Vec<Action> {
        self.register_peer(peer, PeerSession::new(ibgp, rel));
        let prefixes: Vec<Prefix> = self.loc_rib.iter().map(|(p, _)| p).collect();
        let sess = self.peers.get_mut(peer).expect("just inserted");
        for p in prefixes {
            // The new peer has heard nothing yet: every Loc-RIB prefix is
            // pending with a frozen "nothing advertised" marker.
            sess.rib_out.freeze_with(p, || None);
        }
        self.flush_peer(now, peer)
    }

    /// Handles the loss of the session to `peer` (link or router failure).
    ///
    /// All routes learned from the peer must be revalidated; one
    /// [`WorkItem::ImplicitWithdraw`] per affected prefix is queued so the
    /// cleanup costs processing time, exactly like received withdrawals
    /// would.
    pub fn on_peer_down(&mut self, now: SimTime, peer: RouterId) -> Vec<Action> {
        if self.peers.remove(peer).is_none() {
            return Vec::new();
        }
        // Damping state dies with the session. An in-flight reuse timer
        // becomes stale via the generation check in `on_reuse_expiry`:
        // generations come from `damp_next_gen`, which survives the
        // teardown, so re-created state can never reuse one.
        self.damp.retain(|&(p, _), _| p != peer);
        self.suppressed_routes.retain(|&(p, _), _| p != peer);
        let stale_before = self.queue.deleted_stale();
        for prefix in self.rib_in.prefixes_via(peer) {
            self.queue.push(WorkItem::ImplicitWithdraw { peer, prefix });
        }
        self.trace_stale(stale_before);
        let actions = self.maybe_start_processing(now);
        self.trace_depth();
        actions
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Applies one work item to the RIBs. Returns a damping action to
    /// execute (a reuse-timer start) if the update newly suppressed a
    /// route.
    fn apply_item(&mut self, now: SimTime, item: WorkItem) -> Option<Action> {
        match item {
            WorkItem::Update { from, msg } => {
                if !self.peers.contains(from) {
                    // Session died while the update sat in the queue.
                    return None;
                }
                let prefix = msg.prefix;
                // Translate the wire update into the new route state
                // (`None` = withdrawn); looped paths count as withdrawals.
                let new_entry: Option<RouteEntry> = match msg.action {
                    UpdateAction::Advertise(path) if !path.contains(self.as_id) => {
                        let sess = self.peers.get(from).expect("presence checked above");
                        let rank = match self.cfg.policy {
                            PolicyMode::None => 0,
                            PolicyMode::GaoRexford => {
                                if sess.ibgp {
                                    // LOCAL_PREF carried over iBGP.
                                    msg.local_pref.unwrap_or(RANK_PEER)
                                } else {
                                    sess.rel.map(Relationship::rank).unwrap_or(RANK_PEER)
                                }
                            }
                        };
                        Some(RouteEntry {
                            path,
                            ibgp: sess.ibgp,
                            rank,
                        })
                    }
                    _ => None,
                };
                let ibgp = self.peers.get(from).expect("presence checked above").ibgp;
                if let Some(damping) = self.cfg.damping.filter(|_| !ibgp) {
                    let key = (from, prefix);
                    let state = self.damp.entry(key).or_default();
                    if state.is_suppressed() {
                        // Track the latest state; apply it at release time.
                        self.suppressed_routes.insert(key, new_entry);
                        state.record_flap(now, &damping);
                        return None;
                    }
                    let existing = self.rib_in.get(prefix, from);
                    let changed = match (&existing, &new_entry) {
                        (None, None) => false,
                        (Some(old), Some(new)) => old.path != new.path,
                        _ => true,
                    };
                    // A change is a flap once the route has history (a
                    // prior route or a prior penalty); the very first
                    // announcement is free.
                    let has_history = existing.is_some() || state.penalty_at(now, &damping) > 0.0;
                    if changed && has_history && state.record_flap(now, &damping) {
                        // Newly suppressed: pull the route out of the
                        // decision process and park the new state.
                        let delay = state.reuse_delay(now, &damping);
                        self.rib_in.remove(prefix, from);
                        self.suppressed_routes.insert(key, new_entry);
                        // Stamp the suppression from the node-wide counter
                        // (not the per-state one `record_flap` bumped):
                        // state dropped by a session teardown and
                        // re-created later must never repeat a generation
                        // a still-scheduled reuse timer carries.
                        self.damp_next_gen += 1;
                        let gen = self.damp_next_gen;
                        self.damp
                            .get_mut(&key)
                            .expect("entry created above")
                            .set_gen(gen);
                        return Some(Action::StartReuse {
                            peer: from,
                            prefix,
                            delay,
                            gen,
                        });
                    }
                }
                match new_entry {
                    Some(entry) => {
                        self.rib_in.insert(prefix, from, entry);
                    }
                    None => {
                        self.rib_in.remove(prefix, from);
                    }
                }
                None
            }
            WorkItem::ImplicitWithdraw { peer, prefix } => {
                self.rib_in.remove(prefix, peer);
                None
            }
        }
    }

    /// Handles a damping reuse-timer expiry: releases the route if the
    /// penalty has decayed (re-arming otherwise) and re-runs the decision
    /// process with the parked state.
    pub fn on_reuse_expiry(
        &mut self,
        now: SimTime,
        peer: RouterId,
        prefix: Prefix,
        gen: u64,
    ) -> Vec<Action> {
        let Some(damping) = self.cfg.damping else {
            return Vec::new();
        };
        let key = (peer, prefix);
        let Some(state) = self.damp.get_mut(&key) else {
            return Vec::new();
        };
        match state.try_release(now, gen, &damping, false) {
            None => Vec::new(),
            Some(false) => {
                // Not decayed yet: re-arm, forcing release at the cap.
                let delay = state.reuse_delay(now, &damping);
                if delay >= damping.max_suppress {
                    let released = state.try_release(now, gen, &damping, true);
                    debug_assert_eq!(released, Some(true));
                    self.finish_release(now, key)
                } else {
                    vec![Action::StartReuse {
                        peer,
                        prefix,
                        delay,
                        gen,
                    }]
                }
            }
            Some(true) => self.finish_release(now, key),
        }
    }

    fn finish_release(&mut self, now: SimTime, key: (RouterId, Prefix)) -> Vec<Action> {
        let (peer, prefix) = key;
        let parked = self.suppressed_routes.remove(&key).flatten();
        if self.peers.contains(peer) {
            match parked {
                Some(entry) => {
                    self.rib_in.insert(prefix, peer, entry);
                }
                None => {
                    self.rib_in.remove(prefix, peer);
                }
            }
        }
        let mut actions = Vec::new();
        if self.run_decision(prefix, &[peer]) {
            actions.extend(self.flush_all(now));
        }
        actions
    }

    /// Re-runs the decision process for `prefix`; returns whether the best
    /// route changed. `changed` lists every peer whose Adj-RIB-In entry
    /// for `prefix` may have changed since the previous decision — the
    /// incremental fast path compares just those candidates against the
    /// installed best, falling back to a full candidate rescan only when
    /// the installed best itself was withdrawn or worsened.
    fn run_decision(&mut self, prefix: Prefix, changed: &[RouterId]) -> bool {
        self.stats.decision_runs += 1;
        if self.own_prefixes.contains(&prefix) {
            // Locally originated: the zero-hop local route always wins.
            self.trace_push(NodeEvent::Decision {
                prefix,
                full_rescan: false,
            });
            return false;
        }
        let (new, full_rescan) =
            match select_incremental(prefix, &self.rib_in, self.loc_rib.get(prefix), changed) {
                Incremental::Resolved(sel) => {
                    self.stats.fast_decisions += 1;
                    (sel, false)
                }
                Incremental::NeedsRescan => {
                    self.stats.full_rescans += 1;
                    (select_best(prefix, &self.rib_in), true)
                }
            };
        self.trace_push(NodeEvent::Decision {
            prefix,
            full_rescan,
        });
        let old = self.loc_rib.get(prefix);
        if new.as_ref() == old {
            return false;
        }
        // The best route is about to change: break the Adj-RIB-Out mirror
        // towards every peer *before* the install, so the frozen values
        // capture what each peer actually last heard.
        self.freeze_out_all(prefix);
        let path_len = new.as_ref().map(|sel| sel.path.len() as u32);
        match new {
            Some(sel) => {
                self.loc_rib.install(prefix, sel);
            }
            None => {
                self.loc_rib.remove(prefix);
            }
        }
        self.stats.best_changes += 1;
        self.trace_push(NodeEvent::BestChanged { prefix, path_len });
        true
    }

    /// Marks `prefix` pending towards every peer, freezing each session's
    /// current export — by the mirror invariant, exactly what that peer
    /// last heard — unless an earlier unflushed change already froze it
    /// (the first break since the last flush wins). MUST run before the
    /// Loc-RIB change that makes the old export stale.
    fn freeze_out_all(&mut self, prefix: Prefix) {
        let (loc_rib, cfg) = (&self.loc_rib, &self.cfg);
        let (cache, as_id) = (&self.prepend_cache, self.as_id);
        for (peer, sess) in self.peers.iter_mut() {
            let (ibgp, rel) = (sess.ibgp, sess.rel);
            sess.rib_out.freeze_with(prefix, || {
                BgpNode::export_route(loc_rib, cfg, cache, as_id, ibgp, rel, peer, prefix)
                    .map(|(path, _)| path)
            });
        }
    }

    fn maybe_start_processing(&mut self, _now: SimTime) -> Vec<Action> {
        if self.is_busy() {
            return Vec::new();
        }
        let stale_before = self.queue.deleted_stale();
        let batch = self.queue.pop_batch();
        self.trace_stale(stale_before);
        if batch.is_empty() {
            return Vec::new();
        }
        let duration: SimDuration = batch
            .iter()
            .map(|_| uniform_duration(self.cfg.proc_min, self.cfg.proc_max, &mut self.rng))
            .sum();
        self.stats.busy_time += duration;
        if let Some(ctrl) = &mut self.dyn_ctrl {
            ctrl.note_busy(duration);
        }
        self.in_service = batch;
        vec![Action::StartProcessing { duration }]
    }

    fn flush_all(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        // Index loop: flushing never adds or removes peers, and this runs
        // after every service batch — no per-call peer-id Vec.
        for i in 0..self.peers.len() {
            let peer = self.peers.id_at(i);
            actions.extend(self.flush_peer(now, peer));
        }
        actions
    }

    /// Sends whatever the MRAI currently permits to `peer`.
    fn flush_peer(&mut self, now: SimTime, peer: RouterId) -> Vec<Action> {
        match self.cfg.mrai_scope {
            MraiScope::PerPeer => self.flush_peer_scoped(now, peer),
            MraiScope::PerDestination => self.flush_per_destination(now, peer),
        }
    }

    fn flush_peer_scoped(&mut self, now: SimTime, peer: RouterId) -> Vec<Action> {
        {
            let Some(sess) = self.peers.get(peer) else {
                return Vec::new();
            };
            if sess.timer.is_running() || sess.rib_out.is_clean() {
                return Vec::new();
            }
        }
        let pending = {
            let sess = self.peers.get_mut(peer).expect("checked above");
            // Take the pending set whole: the map iterates ascending by
            // prefix, the order the old dirty set produced. Draining it
            // re-establishes the mirror — sending re-syncs the peer.
            sess.rib_out.take_pending()
        };
        let (mut actions, sent_advert, sent_any) = self.emit_updates(peer, pending);
        let start_timer = sent_advert || (self.cfg.withdrawal_rate_limiting && sent_any);
        if start_timer {
            if let Some(delay) = self.next_mrai_interval(now, peer) {
                let sess = self.peers.get_mut(peer).expect("peer exists");
                let gen = sess.timer.start();
                self.stats.mrai_starts += 1;
                self.trace_push(NodeEvent::MraiStarted {
                    peer,
                    prefix: None,
                    delay,
                });
                actions.push(Action::StartMrai {
                    peer,
                    prefix: None,
                    delay,
                    gen,
                });
            }
        }
        actions
    }

    fn flush_per_destination(&mut self, now: SimTime, peer: RouterId) -> Vec<Action> {
        let Some(sess) = self.peers.get(peer) else {
            return Vec::new();
        };
        // Only pending prefixes whose own timer is idle may be sent now.
        let ready: Vec<Prefix> = sess
            .rib_out
            .pending()
            .filter(|p| {
                !sess
                    .dest_timers
                    .get(p)
                    .map(MraiTimer::is_running)
                    .unwrap_or(false)
            })
            .collect();
        if ready.is_empty() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        for p in ready {
            let frozen = {
                let sess = self.peers.get_mut(peer).expect("checked above");
                sess.rib_out.take(p).expect("listed as pending")
            };
            let (mut acts, sent_advert, sent_any) = self.emit_updates(peer, [(p, frozen)]);
            actions.append(&mut acts);
            let start_timer = sent_advert || (self.cfg.withdrawal_rate_limiting && sent_any);
            if start_timer {
                if let Some(delay) = self.next_mrai_interval(now, peer) {
                    let sess = self.peers.get_mut(peer).expect("peer exists");
                    let gen = sess.dest_timers.entry(p).or_default().start();
                    self.stats.mrai_starts += 1;
                    self.trace_push(NodeEvent::MraiStarted {
                        peer,
                        prefix: Some(p),
                        delay,
                    });
                    actions.push(Action::StartMrai {
                        peer,
                        prefix: Some(p),
                        delay,
                        gen,
                    });
                }
            }
        }
        actions
    }

    /// Computes and records the updates for the taken pending entries
    /// (`(prefix, frozen last-advertised)`) towards `peer`. Returns
    /// `(actions, sent_advertisement, sent_anything)`.
    fn emit_updates(
        &mut self,
        peer: RouterId,
        entries: impl IntoIterator<Item = (Prefix, Option<AsPath>)>,
    ) -> (Vec<Action>, bool, bool) {
        let mut actions = Vec::new();
        let (mut sent_advert, mut sent_any) = (false, false);
        // Disjoint field borrows: the session stays mutably borrowed for
        // the whole sweep while the export is computed straight from the
        // Loc-RIB, config and prepend cache — what `path_towards` does,
        // minus two session-map lookups per prefix.
        let Some(sess) = self.peers.get_mut(peer) else {
            return (actions, sent_advert, sent_any);
        };
        let (ibgp, rel) = (sess.ibgp, sess.rel);
        let (loc_rib, cfg) = (&self.loc_rib, &self.cfg);
        let (cache, as_id) = (&self.prepend_cache, self.as_id);
        for (prefix, frozen) in entries {
            let advertised =
                BgpNode::export_route(loc_rib, cfg, cache, as_id, ibgp, rel, peer, prefix);
            #[cfg(any(test, feature = "dense-rib"))]
            assert_eq!(
                frozen.as_ref(),
                sess.shadow_out.get(prefix),
                "delta Adj-RIB-Out froze a value the dense mirror disagrees with"
            );
            match (advertised, frozen) {
                (Some((path, _)), Some(old)) if path == old => {
                    // Redundant: what we'd send equals what they have.
                }
                (Some((path, pref)), _) => {
                    #[cfg(any(test, feature = "dense-rib"))]
                    sess.shadow_out.advertise(prefix, path.clone());
                    self.stats.announcements_sent += 1;
                    sent_advert = true;
                    sent_any = true;
                    if let Some(buf) = self.trace.as_mut() {
                        buf.push(NodeEvent::Sent {
                            to: peer,
                            prefix,
                            advertise: true,
                        });
                    }
                    let msg = match pref {
                        Some(p) => UpdateMsg::advertise_with_pref(prefix, path, p),
                        None => UpdateMsg::advertise(prefix, path),
                    };
                    actions.push(Action::Send { to: peer, msg });
                }
                (None, Some(_)) => {
                    #[cfg(any(test, feature = "dense-rib"))]
                    sess.shadow_out.withdraw(prefix);
                    self.stats.withdrawals_sent += 1;
                    sent_any = true;
                    if let Some(buf) = self.trace.as_mut() {
                        buf.push(NodeEvent::Sent {
                            to: peer,
                            prefix,
                            advertise: false,
                        });
                    }
                    actions.push(Action::Send {
                        to: peer,
                        msg: UpdateMsg::withdraw(prefix),
                    });
                }
                (None, None) => {}
            }
        }
        (actions, sent_advert, sent_any)
    }

    /// The AS path this node would advertise to `peer` for `prefix`
    /// (plus the iBGP `LOCAL_PREF` to carry), or `None` if the route must
    /// be suppressed: unreachable, split horizon, iBGP no-transit, or — in
    /// policy mode — a valley-free export violation.
    fn path_towards(&self, peer: RouterId, prefix: Prefix) -> Option<(AsPath, Option<u8>)> {
        let sess = self.peers.get(peer)?;
        BgpNode::export_route(
            &self.loc_rib,
            &self.cfg,
            &self.prepend_cache,
            self.as_id,
            sess.ibgp,
            sess.rel,
            peer,
            prefix,
        )
    }

    /// The export computation behind [`BgpNode::path_towards`], taking the
    /// node fields it reads as explicit borrows so `emit_updates` can call
    /// it while holding a peer session mutably.
    #[allow(clippy::too_many_arguments)]
    fn export_route(
        loc_rib: &LocRib,
        cfg: &NodeConfig,
        cache: &PrependCache,
        as_id: AsId,
        ibgp: bool,
        rel: Option<Relationship>,
        peer: RouterId,
        prefix: Prefix,
    ) -> Option<(AsPath, Option<u8>)> {
        let best = loc_rib.get(prefix)?;
        if best.next_hop == NextHop::Peer(peer) {
            // Split horizon: never advertise a route back to its source.
            return None;
        }
        if ibgp {
            if best.via_ibgp && !cfg.route_reflector {
                // Regular iBGP speakers do not re-advertise iBGP-learned
                // routes (full-mesh rule); route reflectors do (RFC 4456 —
                // split horizon above already keeps it away from the
                // advertising client).
                return None;
            }
            let pref = match cfg.policy {
                PolicyMode::None => None,
                PolicyMode::GaoRexford => Some(best.rank),
            };
            Some((best.path.clone(), pref))
        } else {
            if cfg.policy == PolicyMode::GaoRexford {
                let to = rel.unwrap_or(Relationship::Peer);
                if !may_export(best.rank, to) {
                    return None;
                }
            }
            Some((BgpNode::prepended_in(cache, as_id, &best.path), None))
        }
    }

    /// `path.prepend(as_id)`, memoized per backing allocation.
    ///
    /// A best path is exported to every eBGP peer and re-exported on
    /// every MRAI flush; keying on the parent's storage address makes all
    /// of those hit one cached prepend instead of allocating each time.
    /// The cached parent clone pins the allocation, so a live key can
    /// never be recycled by a different path.
    fn prepended_in(cache: &PrependCache, as_id: AsId, path: &AsPath) -> AsPath {
        let mut cache = cache.borrow_mut();
        if let Some((parent, child)) = cache.get(&path.storage_key()) {
            debug_assert!(parent.ptr_eq(path));
            return child.clone();
        }
        let child = path.prepend(as_id);
        if cache.len() >= 1024 {
            // Bound the pinned allocations; the working set (current best
            // paths) refills quickly.
            cache.clear();
        }
        cache.insert(path.storage_key(), (path.clone(), child.clone()));
        child
    }

    /// The jittered MRAI interval for the next timer towards `peer`, or
    /// `None` if the effective MRAI is zero (no pacing).
    fn next_mrai_interval(&mut self, now: SimTime, peer: RouterId) -> Option<SimDuration> {
        let ibgp = self.peers.get(peer)?.ibgp;
        let base = if ibgp {
            self.cfg.ibgp_mrai
        } else {
            match &self.cfg.mrai {
                MraiPolicy::Constant(d) => *d,
                MraiPolicy::Dynamic(_) => {
                    let pending = self.queue.len() + self.in_service.len();
                    let ctrl = self
                        .dyn_ctrl
                        .as_mut()
                        .expect("dynamic policy has controller");
                    let shift = ctrl.evaluate(now, pending);
                    let mrai = ctrl.current_mrai();
                    if let Some(s) = shift {
                        self.trace_push(NodeEvent::MraiLevel {
                            from: s.from,
                            to: s.to,
                            reading: s.reading,
                        });
                    }
                    mrai
                }
            }
        };
        if base.is_zero() {
            return None;
        }
        Some(if self.cfg.jitter {
            jittered(base, &mut self.rng)
        } else {
            base
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynmrai::{Detector, DynamicMraiConfig};
    use crate::queue::QueueDiscipline;
    use rand::SeedableRng;

    fn rid(i: u32) -> RouterId {
        RouterId::new(i)
    }

    fn asn(i: u32) -> AsId {
        AsId::new(i)
    }

    fn pfx(i: u32) -> Prefix {
        Prefix::new(i)
    }

    fn node(id: u32, cfg: NodeConfig) -> BgpNode {
        BgpNode::new(
            rid(id),
            asn(id),
            cfg,
            SmallRng::seed_from_u64(1000 + u64::from(id)),
        )
    }

    fn fast_cfg() -> NodeConfig {
        NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .build()
    }

    fn sends(actions: &[Action]) -> Vec<(RouterId, UpdateMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    /// Delivers the expiry event for every MRAI timer started in `acts`.
    fn fire_mrai(n: &mut BgpNode, t: SimTime, acts: &[Action]) -> Vec<Action> {
        let mut out = Vec::new();
        for a in acts {
            if let Action::StartMrai {
                peer, prefix, gen, ..
            } = a
            {
                out.extend(n.on_mrai_expiry(t, *peer, *prefix, *gen));
            }
        }
        out
    }

    /// Runs one update through a node: deliver, then complete processing.
    fn process_one(n: &mut BgpNode, t: SimTime, from: u32, msg: UpdateMsg) -> Vec<Action> {
        let acts = n.on_update(t, rid(from), msg);
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::StartProcessing { .. })),
            "expected processing to start"
        );
        n.on_proc_done(t + SimDuration::from_millis(30))
    }

    #[test]
    fn originate_advertises_with_prepend_and_starts_timer() {
        let mut n = node(0, fast_cfg());
        n.add_peer(rid(1), false);
        let acts = n.originate(SimTime::ZERO, pfx(0));
        let s = sends(&acts);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, rid(1));
        match &s[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.hops(), &[asn(0)]),
            other => panic!("expected advertise, got {other:?}"),
        }
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::StartMrai { peer, prefix: None, delay, .. }
                if *peer == rid(1) && *delay == SimDuration::from_millis(500)
        )));
        assert!(n.loc_rib().get(pfx(0)).is_some());
    }

    #[test]
    fn update_propagates_with_split_horizon() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let s = sends(&acts);
        // Only to peer 2; split horizon suppresses the echo to peer 0.
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, rid(2));
        match &s[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.hops(), &[asn(1), asn(0)]),
            other => panic!("expected advertise, got {other:?}"),
        }
    }

    #[test]
    fn busy_node_queues_updates() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        let a1 = n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        assert_eq!(a1.len(), 1, "first update starts processing");
        let a2 = n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(1), AsPath::from_hops([asn(0)])),
        );
        assert!(a2.is_empty(), "server busy; second update just queues");
        assert_eq!(n.queue_len(), 1);
        assert!(n.is_busy());
    }

    #[test]
    fn withdrawal_falls_back_to_alternate_path() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        n.add_peer(rid(3), false);
        // Primary (short) via peer 0, backup (long) via peer 2.
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(0)])),
        );
        fire_mrai(&mut n, SimTime::from_secs(1), &acts);
        process_one(
            &mut n,
            SimTime::from_secs(10),
            2,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(2), asn(5), asn(0)])),
        );
        assert_eq!(
            n.loc_rib().get(pfx(9)).unwrap().next_hop,
            NextHop::Peer(rid(0))
        );
        // Withdraw the primary: best flips to the backup.
        let acts = process_one(
            &mut n,
            SimTime::from_secs(20),
            0,
            UpdateMsg::withdraw(pfx(9)),
        );
        assert_eq!(
            n.loc_rib().get(pfx(9)).unwrap().next_hop,
            NextHop::Peer(rid(2))
        );
        // Peer 3 must hear the new (longer) path.
        let to3: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(to, _)| *to == rid(3))
            .collect();
        assert_eq!(to3.len(), 1);
        match &to3[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.len(), 4),
            other => panic!("expected advertise, got {other:?}"),
        }
    }

    #[test]
    fn looped_path_is_rejected() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(1), asn(9)])),
        );
        assert!(
            n.loc_rib().get(pfx(0)).is_none(),
            "looped route must not be used"
        );
        assert!(sends(&acts).is_empty());
    }

    #[test]
    fn mrai_gates_second_advertisement_until_expiry() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        // First route: advertised immediately; timer starts for peer 2.
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let gen = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai { peer, gen, .. } if *peer == rid(2) => Some(*gen),
                _ => None,
            })
            .expect("timer started for peer 2");
        // Route changes while the timer runs: nothing sent yet.
        let acts = process_one(
            &mut n,
            SimTime::from_millis(100),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(7)])),
        );
        assert!(sends(&acts).is_empty(), "gated by the running MRAI timer");
        // Expiry: the pending change goes out and the timer restarts.
        let acts = n.on_mrai_expiry(SimTime::from_millis(600), rid(2), None, gen);
        let s = sends(&acts);
        assert_eq!(s.len(), 1);
        match &s[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.len(), 3),
            other => panic!("expected advertise, got {other:?}"),
        }
        assert!(acts.iter().any(|a| matches!(a, Action::StartMrai { .. })));
    }

    #[test]
    fn stale_mrai_expiry_is_ignored() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let gen = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai { peer, gen, .. } if *peer == rid(2) => Some(*gen),
                _ => None,
            })
            .unwrap();
        assert!(n
            .on_mrai_expiry(SimTime::from_secs(1), rid(2), None, gen + 7)
            .is_empty());
        // Real expiry with empty dirty set: nothing sent, timer not restarted.
        let acts = n.on_mrai_expiry(SimTime::from_secs(1), rid(2), None, gen);
        assert!(acts.is_empty());
    }

    #[test]
    fn redundant_advertisement_suppressed_after_flap() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let gen = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai { peer, gen, .. } if *peer == rid(2) => Some(*gen),
                _ => None,
            })
            .unwrap();
        // Flap A -> B -> A while the timer runs.
        process_one(
            &mut n,
            SimTime::from_millis(50),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(9)])),
        );
        process_one(
            &mut n,
            SimTime::from_millis(100),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let acts = n.on_mrai_expiry(SimTime::from_millis(600), rid(2), None, gen);
        assert!(
            sends(&acts).is_empty(),
            "net-zero flap must not generate an update"
        );
    }

    #[test]
    fn peer_down_queues_implicit_withdraws_and_propagates() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        fire_mrai(&mut n, SimTime::from_millis(600), &acts);
        let acts = process_one(
            &mut n,
            SimTime::from_secs(1),
            0,
            UpdateMsg::advertise(pfx(5), AsPath::from_hops([asn(0), asn(5)])),
        );
        fire_mrai(&mut n, SimTime::from_secs(2), &acts);
        // Session to peer 0 dies: two implicit withdraws queue up.
        let acts = n.on_peer_down(SimTime::from_secs(10), rid(0));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::StartProcessing { .. })));
        let acts = n.on_proc_done(SimTime::from_secs(11));
        // Batched per prefix under FIFO: first prefix processed; run to
        // completion for the second if still queued.
        let mut all = sends(&acts);
        if n.is_busy() {
            all.extend(sends(&n.on_proc_done(SimTime::from_secs(12))));
        }
        let withdrawn: BTreeSet<Prefix> = all
            .iter()
            .filter(|(to, m)| *to == rid(2) && !m.action.is_advertise())
            .map(|(_, m)| m.prefix)
            .collect();
        assert_eq!(withdrawn, BTreeSet::from([pfx(0), pfx(5)]));
        assert!(n.loc_rib().get(pfx(0)).is_none());
        assert!(n.loc_rib().get(pfx(5)).is_none());
    }

    #[test]
    fn update_from_dead_peer_is_dropped() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.on_peer_down(SimTime::ZERO, rid(0));
        let acts = n.on_update(
            SimTime::from_millis(1),
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        assert!(acts.is_empty());
        assert_eq!(n.queue_len(), 0);
    }

    #[test]
    fn withdrawal_only_send_does_not_start_timer_without_wrate() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        // Let peer 2's timer expire with nothing pending.
        fire_mrai(&mut n, SimTime::from_millis(600), &acts);
        // Now a pure withdrawal: no alternate route exists.
        let acts = process_one(
            &mut n,
            SimTime::from_secs(5),
            0,
            UpdateMsg::withdraw(pfx(0)),
        );
        let withdraws: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(_, m)| !m.action.is_advertise())
            .collect();
        assert_eq!(withdraws.len(), 1);
        let mrai_starts: Vec<_> = acts
            .iter()
            .filter(|a| matches!(a, Action::StartMrai { .. }))
            .collect();
        assert!(
            mrai_starts.is_empty(),
            "withdrawal-only send must not start MRAI"
        );
    }

    #[test]
    fn wrate_starts_timer_on_withdrawal() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .withdrawal_rate_limiting(true)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let gen = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai { peer, gen, .. } if *peer == rid(2) => Some(*gen),
                _ => None,
            })
            .unwrap();
        n.on_mrai_expiry(SimTime::from_secs(1), rid(2), None, gen);
        let acts = process_one(
            &mut n,
            SimTime::from_secs(5),
            0,
            UpdateMsg::withdraw(pfx(0)),
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::StartMrai { peer, .. } if *peer == rid(2))),
            "WRATE must rate-limit withdrawals too"
        );
    }

    #[test]
    fn ibgp_semantics() {
        // Node 1 (AS 1) with iBGP peer 10 (same AS) and eBGP peer 0 (AS 0).
        let mut n = BgpNode::new(rid(1), asn(1), fast_cfg(), SmallRng::seed_from_u64(5));
        n.add_peer(rid(0), false);
        n.add_peer(rid(10), true);
        // eBGP-learned route goes to the iBGP peer unprepended.
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let to_ibgp: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(to, _)| *to == rid(10))
            .collect();
        assert_eq!(to_ibgp.len(), 1);
        match &to_ibgp[0].1.action {
            UpdateAction::Advertise(p) => {
                assert_eq!(p.hops(), &[asn(0)], "no prepend over iBGP");
            }
            other => panic!("expected advertise, got {other:?}"),
        }
        // iBGP-learned route is NOT re-advertised to another iBGP peer.
        let mut n2 = BgpNode::new(rid(2), asn(1), fast_cfg(), SmallRng::seed_from_u64(6));
        n2.add_peer(rid(10), true);
        n2.add_peer(rid(11), true);
        n2.add_peer(rid(5), false);
        let acts = process_one(
            &mut n2,
            SimTime::ZERO,
            10,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let s = sends(&acts);
        assert!(
            s.iter().all(|(to, _)| *to != rid(11)),
            "iBGP routes must not transit to iBGP peers"
        );
        // ... but it IS advertised to the eBGP peer, with prepend.
        let to_ebgp: Vec<_> = s.iter().filter(|(to, _)| *to == rid(5)).collect();
        assert_eq!(to_ebgp.len(), 1);
        match &to_ebgp[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.hops(), &[asn(1), asn(0)]),
            other => panic!("expected advertise, got {other:?}"),
        }
    }

    #[test]
    fn ibgp_mrai_zero_means_unpaced() {
        let mut n = BgpNode::new(rid(1), asn(1), fast_cfg(), SmallRng::seed_from_u64(5));
        n.add_peer(rid(10), true);
        n.add_peer(rid(0), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, Action::StartMrai { peer, .. } if *peer == rid(10))),
            "zero iBGP MRAI must not start timers"
        );
    }

    #[test]
    fn per_destination_scope_runs_independent_timers() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .mrai_scope(MraiScope::PerDestination)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        // Prefix 0 advertised: starts p0's timer towards peer 2.
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        // Prefix 1 changes while p0's timer runs: p1 goes out immediately.
        let acts = process_one(
            &mut n,
            SimTime::from_millis(100),
            0,
            UpdateMsg::advertise(pfx(1), AsPath::from_hops([asn(0), asn(3)])),
        );
        let s: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(to, _)| *to == rid(2))
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1.prefix, pfx(1), "independent destination not gated");
        // But a p0 change IS gated.
        let acts = process_one(
            &mut n,
            SimTime::from_millis(200),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(4)])),
        );
        assert!(
            sends(&acts)
                .iter()
                .all(|(to, m)| !(*to == rid(2) && m.prefix == pfx(0))),
            "same destination must be gated by its timer"
        );
    }

    #[test]
    fn dynamic_mrai_rises_under_backlog() {
        let cfg = NodeConfig::builder()
            .mrai_dynamic(DynamicMraiConfig::paper_default())
            .jitter(false)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        assert_eq!(n.dynamic_level(), Some(0));
        // Pile up a large backlog while the server is busy.
        n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        for i in 1..60 {
            n.on_update(
                SimTime::ZERO,
                rid(0),
                UpdateMsg::advertise(pfx(i), AsPath::from_hops([asn(0)])),
            );
        }
        // Complete the first batch: the flush evaluates the controller with
        // ~59 pending updates (≈ 0.91 s unfinished work > 0.65 s).
        let acts = n.on_proc_done(SimTime::from_millis(20));
        assert_eq!(
            n.dynamic_level(),
            Some(1),
            "level must step up under backlog"
        );
        let delay = acts.iter().find_map(|a| match a {
            Action::StartMrai { delay, .. } => Some(*delay),
            _ => None,
        });
        assert_eq!(delay, Some(SimDuration::from_millis(1250)));
    }

    #[test]
    fn level_change_leaves_running_timers_alone() {
        // `down` = 0 pins the level once raised, so the end of the test
        // is not sensitive to how fast the backlog drains.
        let dyn_cfg = DynamicMraiConfig {
            levels: vec![
                SimDuration::from_millis(500),
                SimDuration::from_millis(1250),
            ],
            detector: Detector::UnfinishedWork {
                up: SimDuration::from_millis(650),
                down: SimDuration::ZERO,
                mean_processing: SimDuration::from_micros(15_500),
            },
        };
        let cfg = NodeConfig::builder()
            .mrai_dynamic(dyn_cfg)
            .jitter(false)
            .mrai_scope(MraiScope::PerDestination)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        // Arm p0's timer toward rid(2) at the idle level (500 ms).
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let (delay0, gen0) = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai {
                    peer,
                    prefix: Some(p),
                    delay,
                    gen,
                } if *peer == rid(2) && *p == pfx(0) => Some((*delay, *gen)),
                _ => None,
            })
            .expect("p0 timer armed");
        assert_eq!(delay0, SimDuration::from_millis(500));
        // Pile a backlog (other destinations, plus one p0 change) while
        // p0's timer runs. The first completion starts p1's timer; that
        // start evaluates the controller with ~60 pending updates
        // (≈ 0.93 s unfinished work > 0.65 s) and raises the level.
        for i in 1..60 {
            n.on_update(
                SimTime::from_millis(40),
                rid(0),
                UpdateMsg::advertise(pfx(i), AsPath::from_hops([asn(0)])),
            );
        }
        n.on_update(
            SimTime::from_millis(41),
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(9)])),
        );
        // Drain the whole backlog, collecting every action.
        let mut acts = Vec::new();
        let mut t = SimTime::from_millis(80);
        loop {
            let batch = n.on_proc_done(t);
            let more = batch
                .iter()
                .any(|a| matches!(a, Action::StartProcessing { .. }));
            acts.extend(batch);
            if !more {
                break;
            }
            t += SimDuration::from_millis(1);
        }
        assert_eq!(n.dynamic_level(), Some(1), "backlog must raise the level");
        // The level change never touched p0's running timer: no re-arm,
        // and the gated p0 change stayed queued.
        assert!(
            acts.iter().all(|a| !matches!(
                a,
                Action::StartMrai { peer, prefix: Some(p), .. }
                    if *peer == rid(2) && *p == pfx(0)
            )),
            "a level change must not re-arm a running timer"
        );
        // The original generation expires on its original 500 ms
        // schedule; the pending p0 change flushes, and only this restart
        // picks up the raised level.
        let acts = n.on_mrai_expiry(SimTime::from_millis(530), rid(2), Some(pfx(0)), gen0);
        assert!(
            sends(&acts)
                .iter()
                .any(|(to, m)| *to == rid(2) && m.prefix == pfx(0)),
            "gated p0 change flushes at the original expiry time"
        );
        let delay1 = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai {
                    peer,
                    prefix: Some(p),
                    delay,
                    ..
                } if *peer == rid(2) && *p == pfx(0) => Some(*delay),
                _ => None,
            })
            .expect("timer restarts at expiry");
        assert_eq!(
            delay1,
            SimDuration::from_millis(1250),
            "the raised level applies only from the restart"
        );
    }

    #[test]
    fn batched_queue_deletes_stale_and_applies_newest() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .queue(QueueDiscipline::Batched)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        // While busy, three more for the same prefix from the same peer.
        n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(2)])),
        );
        n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(3)])),
        );
        n.on_update(
            SimTime::ZERO,
            rid(0),
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(4)])),
        );
        // First completion applies msg 1 and starts the next batch, which
        // collapses the remaining three to the newest one.
        n.on_proc_done(SimTime::from_millis(20));
        assert_eq!(n.stale_deleted(), 2);
        n.on_proc_done(SimTime::from_millis(40));
        let best = n.loc_rib().get(pfx(0)).expect("route installed");
        assert_eq!(best.path.hops(), &[asn(0), asn(4)], "newest update wins");
    }

    #[test]
    fn jitter_reduces_mrai_within_band() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_secs(30))
            .jitter(true)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let delay = acts
            .iter()
            .find_map(|a| match a {
                Action::StartMrai { delay, .. } => Some(*delay),
                _ => None,
            })
            .expect("timer started");
        let base = SimDuration::from_secs(30);
        assert!(delay <= base && delay >= base.mul_f64(0.75));
        assert_ne!(
            delay, base,
            "jitter should almost surely not be exactly base"
        );
    }

    #[test]
    fn expedite_cancels_timer_for_improvements() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .expedite_improvements(true)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        // Long route advertised; timer starts towards peer 2.
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(8), asn(9)])),
        );
        // A shorter route arrives while the timer runs: with expedite on,
        // it must go out immediately.
        let acts = process_one(
            &mut n,
            SimTime::from_millis(100),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let to2: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(to, _)| *to == rid(2))
            .collect();
        assert_eq!(to2.len(), 1, "improvement must be expedited past the MRAI");
        match &to2[0].1.action {
            UpdateAction::Advertise(p) => assert_eq!(p.len(), 2),
            other => panic!("expected advertise, got {other:?}"),
        }
    }

    #[test]
    fn expedite_does_not_bypass_mrai_for_worsening() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .expedite_improvements(true)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        // A *longer* replacement must still wait for the timer.
        let acts = process_one(
            &mut n,
            SimTime::from_millis(100),
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(8)])),
        );
        assert!(
            sends(&acts).iter().all(|(to, _)| *to != rid(2)),
            "worsening change must remain MRAI-gated"
        );
    }

    #[test]
    fn set_constant_mrai_switches_policy() {
        let cfg = NodeConfig::builder()
            .mrai_dynamic(DynamicMraiConfig::paper_default())
            .jitter(false)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        assert_eq!(n.dynamic_level(), Some(0));
        n.set_constant_mrai(SimDuration::from_millis(3500));
        assert_eq!(n.dynamic_level(), None);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let delay = acts.iter().find_map(|a| match a {
            Action::StartMrai { delay, .. } => Some(*delay),
            _ => None,
        });
        assert_eq!(delay, Some(SimDuration::from_millis(3500)));
    }

    #[test]
    fn reset_stats_clears_queue_counters() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .queue(QueueDiscipline::Batched)
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        for i in 0..4 {
            n.on_update(
                SimTime::ZERO,
                rid(0),
                UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0), asn(10 + i)])),
            );
        }
        n.on_proc_done(SimTime::from_millis(20));
        assert!(n.stale_deleted() > 0);
        assert!(n.queue_peak() > 0);
        n.reset_stats();
        assert_eq!(n.stale_deleted(), 0);
        assert_eq!(n.queue_peak(), n.queue_len());
    }

    #[test]
    fn policy_prefers_customer_over_shorter_provider_route() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .policy(PolicyMode::GaoRexford)
            .build();
        let mut n = node(1, cfg);
        n.add_peer_with_relationship(rid(0), false, Relationship::Provider);
        n.add_peer_with_relationship(rid(2), false, Relationship::Customer);
        // Short route via the provider...
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(9)])),
        );
        assert_eq!(
            n.loc_rib().get(pfx(9)).unwrap().next_hop,
            NextHop::Peer(rid(0))
        );
        // ...loses to a longer route via the customer.
        process_one(
            &mut n,
            SimTime::from_secs(1),
            2,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(2), asn(5), asn(9)])),
        );
        let best = n.loc_rib().get(pfx(9)).unwrap();
        assert_eq!(best.next_hop, NextHop::Peer(rid(2)));
        assert_eq!(best.rank, 0, "customer routes rank 0");
    }

    #[test]
    fn policy_export_is_valley_free() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .policy(PolicyMode::GaoRexford)
            .build();
        let mut n = node(1, cfg);
        n.add_peer_with_relationship(rid(0), false, Relationship::Provider);
        n.add_peer_with_relationship(rid(2), false, Relationship::Peer);
        n.add_peer_with_relationship(rid(3), false, Relationship::Customer);
        // A provider-learned route must go to the customer ONLY.
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(9)])),
        );
        let targets: Vec<RouterId> = sends(&acts).into_iter().map(|(to, _)| to).collect();
        assert_eq!(
            targets,
            vec![rid(3)],
            "provider route leaks past the customer"
        );
    }

    #[test]
    fn policy_customer_route_exported_everywhere() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .policy(PolicyMode::GaoRexford)
            .build();
        let mut n = node(1, cfg);
        n.add_peer_with_relationship(rid(0), false, Relationship::Customer);
        n.add_peer_with_relationship(rid(2), false, Relationship::Peer);
        n.add_peer_with_relationship(rid(3), false, Relationship::Provider);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(9)])),
        );
        let mut targets: Vec<RouterId> = sends(&acts).into_iter().map(|(to, _)| to).collect();
        targets.sort();
        assert_eq!(
            targets,
            vec![rid(2), rid(3)],
            "customer routes export to all"
        );
    }

    #[test]
    fn policy_local_pref_carried_over_ibgp() {
        // Border router in AS 1 learns from a provider; its iBGP message
        // must carry rank 2 so interior routers rank it correctly.
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .policy(PolicyMode::GaoRexford)
            .build();
        let mut border = BgpNode::new(rid(1), asn(1), cfg.clone(), SmallRng::seed_from_u64(7));
        border.add_peer_with_relationship(rid(0), false, Relationship::Provider);
        border.add_peer(rid(10), true);
        let acts = process_one(
            &mut border,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(9)])),
        );
        let to_ibgp: Vec<_> = sends(&acts)
            .into_iter()
            .filter(|(to, _)| *to == rid(10))
            .collect();
        assert_eq!(to_ibgp.len(), 1);
        assert_eq!(
            to_ibgp[0].1.local_pref,
            Some(2),
            "provider rank must ride iBGP"
        );
        // The interior router installs it at the carried rank.
        let mut interior = BgpNode::new(rid(10), asn(1), cfg, SmallRng::seed_from_u64(8));
        interior.add_peer(rid(1), true);
        interior.add_peer_with_relationship(rid(5), false, Relationship::Customer);
        process_one(&mut interior, SimTime::ZERO, 1, to_ibgp[0].1.clone());
        assert_eq!(interior.loc_rib().get(pfx(9)).unwrap().rank, 2);
    }

    #[test]
    fn policy_off_ignores_relationships() {
        // With PolicyMode::None, relationships are inert: shortest path wins
        // and everything is exported (modulo split horizon).
        let mut n = node(1, fast_cfg());
        n.add_peer_with_relationship(rid(0), false, Relationship::Provider);
        n.add_peer_with_relationship(rid(2), false, Relationship::Peer);
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(9)])),
        );
        let targets: Vec<RouterId> = sends(&acts).into_iter().map(|(to, _)| to).collect();
        assert_eq!(
            targets,
            vec![rid(2)],
            "policy off: export to the peer as usual"
        );
        assert_eq!(n.loc_rib().get(pfx(9)).unwrap().rank, 0);
    }

    #[test]
    fn peer_up_triggers_full_table_exchange() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        // Learn two routes and originate one.
        let acts = process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(5), AsPath::from_hops([asn(0)])),
        );
        fire_mrai(&mut n, SimTime::from_secs(1), &acts);
        let acts = n.originate(SimTime::from_secs(2), pfx(1));
        fire_mrai(&mut n, SimTime::from_secs(3), &acts);
        // A new session comes up: the whole Loc-RIB goes out, filtered by
        // split horizon (nothing here was learned from the new peer).
        let acts = n.on_peer_up(SimTime::from_secs(4), rid(2), false, None);
        let announced: Vec<Prefix> = sends(&acts)
            .into_iter()
            .filter(|(to, m)| *to == rid(2) && m.action.is_advertise())
            .map(|(_, m)| m.prefix)
            .collect();
        assert_eq!(
            announced,
            vec![pfx(1), pfx(5)],
            "full table exchange expected"
        );
    }

    #[test]
    fn peer_up_respects_split_horizon_and_policy() {
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .policy(PolicyMode::GaoRexford)
            .build();
        let mut n = node(1, cfg);
        n.add_peer_with_relationship(rid(0), false, Relationship::Provider);
        // Provider-learned route.
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(5), AsPath::from_hops([asn(0)])),
        );
        // A peer session comes up: the provider route must NOT be exported
        // to a peer (valley-free), so the exchange stays empty.
        let acts = n.on_peer_up(
            SimTime::from_secs(1),
            rid(2),
            false,
            Some(Relationship::Peer),
        );
        assert!(
            sends(&acts).is_empty(),
            "valley-free filter must apply at session up"
        );
        // A customer session comes up: the route goes out.
        let acts = n.on_peer_up(
            SimTime::from_secs(2),
            rid(3),
            false,
            Some(Relationship::Customer),
        );
        assert_eq!(sends(&acts).len(), 1);
    }

    #[test]
    fn damping_suppresses_flapping_route_and_releases() {
        use crate::damping::DampingConfig;
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .damping(DampingConfig::paper_scale())
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        // Announce, withdraw, announce, withdraw: flaps accumulate.
        let mut t = SimTime::ZERO;
        let mut reuse: Option<(RouterId, Prefix, SimDuration, u64)> = None;
        for i in 0..4 {
            let msg = if i % 2 == 0 {
                UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(0)]))
            } else {
                UpdateMsg::withdraw(pfx(9))
            };
            let acts = process_one(&mut n, t, 0, msg);
            for a in &acts {
                if let Action::StartReuse {
                    peer,
                    prefix,
                    delay,
                    gen,
                } = a
                {
                    reuse = Some((*peer, *prefix, *delay, *gen));
                }
            }
            fire_mrai(&mut n, t + SimDuration::from_millis(600), &acts);
            t += SimDuration::from_secs(1);
        }
        let (peer, prefix, delay, gen) = reuse.expect("route must get suppressed");
        assert_eq!(peer, rid(0));
        assert_eq!(prefix, pfx(9));
        assert_eq!(n.suppressed_count(), 1);
        // While suppressed, a fresh announce is parked, not installed.
        process_one(
            &mut n,
            t,
            0,
            UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(0), asn(7)])),
        );
        assert!(
            n.loc_rib().get(pfx(9)).is_none(),
            "suppressed route must not be used"
        );
        // Fire the reuse timer after the computed delay (plus slack).
        let at = t + delay + SimDuration::from_secs(60);
        let acts = n.on_reuse_expiry(at, peer, prefix, gen);
        assert_eq!(n.suppressed_count(), 0);
        let best = n
            .loc_rib()
            .get(pfx(9))
            .expect("parked route installed at release");
        assert_eq!(best.path.len(), 2, "latest parked state wins");
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Send { to, .. } if *to == rid(2))),
            "release must propagate the route"
        );
    }

    #[test]
    fn damping_ignores_ibgp_sessions() {
        use crate::damping::DampingConfig;
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .damping(DampingConfig::paper_scale())
            .build();
        let mut n = BgpNode::new(rid(1), asn(1), cfg, SmallRng::seed_from_u64(3));
        n.add_peer(rid(10), true);
        let mut t = SimTime::ZERO;
        for i in 0..6 {
            let msg = if i % 2 == 0 {
                UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(0)]))
            } else {
                UpdateMsg::withdraw(pfx(9))
            };
            process_one(&mut n, t, 10, msg);
            t += SimDuration::from_secs(1);
        }
        assert_eq!(n.suppressed_count(), 0, "iBGP routes are never damped");
    }

    #[test]
    fn reuse_timer_from_before_session_teardown_stays_stale() {
        // Regression: suppression generations used to come from a counter
        // *inside* DampingState. `on_peer_down` drops the state, so a
        // suppression after the session returns restarted the counter at 1
        // — the same generation an in-flight reuse timer from before the
        // teardown carries. That stale timer then released the *new*
        // suppression early: a phantom re-advertisement. Generations now
        // come from a node-level counter that survives the teardown.
        use crate::damping::DampingConfig;
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .damping(DampingConfig::paper_scale())
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        let suppress = |n: &mut BgpNode, t0: SimTime| -> Option<(SimDuration, u64)> {
            let mut reuse = None;
            let mut t = t0;
            for i in 0..4 {
                let msg = if i % 2 == 0 {
                    UpdateMsg::advertise(pfx(9), AsPath::from_hops([asn(0)]))
                } else {
                    UpdateMsg::withdraw(pfx(9))
                };
                let acts = process_one(n, t, 0, msg);
                for a in &acts {
                    if let Action::StartReuse { delay, gen, .. } = a {
                        reuse = Some((*delay, *gen));
                    }
                }
                fire_mrai(n, t + SimDuration::from_millis(600), &acts);
                t += SimDuration::from_secs(1);
            }
            reuse
        };
        let (_, gen1) = suppress(&mut n, SimTime::ZERO).expect("first suppression");
        assert_eq!(n.suppressed_count(), 1);
        // Session teardown and re-establishment: the damping state for
        // peer 0 dies while the gen1 reuse timer is still in flight.
        n.on_peer_down(SimTime::from_secs(10), rid(0));
        assert_eq!(n.suppressed_count(), 0);
        n.on_peer_up(SimTime::from_secs(11), rid(0), false, None);
        let (_, gen2) = suppress(&mut n, SimTime::from_secs(12)).expect("second suppression");
        assert!(
            gen2 > gen1,
            "generations must be monotonic across teardown (gen1 {gen1}, gen2 {gen2})"
        );
        assert_eq!(n.suppressed_count(), 1);
        // The pre-teardown timer fires late enough that the penalty has
        // decayed — if its generation aliased, this would release the new
        // suppression and re-advertise a flapping route.
        let acts = n.on_reuse_expiry(SimTime::from_secs(500), rid(0), pfx(9), gen1);
        assert!(
            acts.is_empty(),
            "stale pre-teardown reuse timer must be a no-op, got {acts:?}"
        );
        assert_eq!(n.suppressed_count(), 1, "new suppression must survive");
    }

    #[test]
    fn stale_reuse_timer_is_ignored() {
        use crate::damping::DampingConfig;
        let cfg = NodeConfig::builder()
            .mrai_constant(SimDuration::from_millis(500))
            .jitter(false)
            .damping(DampingConfig::paper_scale())
            .build();
        let mut n = node(1, cfg);
        n.add_peer(rid(0), false);
        let acts = n.on_reuse_expiry(SimTime::from_secs(1), rid(0), pfx(9), 7);
        assert!(acts.is_empty(), "no state ⇒ no action");
    }

    #[test]
    fn stats_track_messages() {
        let mut n = node(1, fast_cfg());
        n.add_peer(rid(0), false);
        n.add_peer(rid(2), false);
        process_one(
            &mut n,
            SimTime::ZERO,
            0,
            UpdateMsg::advertise(pfx(0), AsPath::from_hops([asn(0)])),
        );
        let s = n.stats();
        assert_eq!(s.updates_received, 1);
        assert_eq!(s.updates_processed, 1);
        assert_eq!(s.announcements_sent, 1);
        assert_eq!(s.decision_runs, 1);
        assert_eq!(s.best_changes, 1);
        assert!(s.busy_time > SimDuration::ZERO);
        let mut n2 = n.clone();
        n2.reset_stats();
        assert_eq!(n2.stats().messages_sent(), 0);
    }
}
