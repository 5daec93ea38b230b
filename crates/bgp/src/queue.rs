//! Update-processing queue disciplines.
//!
//! The router engine is a single server: it takes one *batch* of work items
//! off the input queue, is busy for the sum of their per-item processing
//! delays, applies them, and repeats. How batches form is the discipline:
//!
//! * [`QueueDiscipline::Fifo`] — default BGP: one message at a time in
//!   arrival order.
//! * [`QueueDiscipline::Batched`] — the paper's scheme (§4.4): a logical
//!   queue per destination; the next batch is *every* queued update for the
//!   oldest-waiting destination, with stale updates (all but the newest
//!   from each neighbor) deleted unprocessed. The deletions are exactly the
//!   processing the scheme saves; processing all of a destination's updates
//!   before the MRAI expires is what suppresses invalid transient
//!   advertisements.
//! * [`QueueDiscipline::TcpBatch`] — what routers do today (§4.4's
//!   comparison point): drain up to one buffer's worth of messages from a
//!   single peer's connection and process them as one batch. Stale updates
//!   for the same destination *within the batch* collapse, but updates for
//!   the same destination from different peers or different buffers do not.

use std::collections::{BTreeMap, VecDeque};

use bgpsim_topology::RouterId;
use serde::{Deserialize, Serialize};

use crate::msg::{Prefix, UpdateMsg};

/// How the input queue forms processing batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum QueueDiscipline {
    /// One message at a time, arrival order (default BGP).
    #[default]
    Fifo,
    /// Per-destination batches with stale-update deletion (the paper's
    /// batching scheme, §4.4).
    Batched,
    /// Like [`Batched`](QueueDiscipline::Batched) but serving the
    /// destination with the **most** queued updates first instead of the
    /// oldest-waiting one — an extension in the spirit of the paper's
    /// future work ("the batching scheme can be improved further"):
    /// hot destinations are where stale deletion saves the most work.
    BatchedLargestFirst,
    /// Per-peer buffer batches of at most the given size (today's router
    /// behaviour, §4.4).
    TcpBatch {
        /// Maximum messages drained from one peer per batch.
        buffer: usize,
    },
}

/// One unit of work for the BGP engine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkItem {
    /// A received UPDATE from a peer.
    Update {
        /// The advertising peer.
        from: RouterId,
        /// The message.
        msg: UpdateMsg,
    },
    /// Local cleanup after a session loss: re-run the decision process for
    /// one prefix previously reachable via the dead peer. Costs processing
    /// time like a received withdrawal would.
    ImplicitWithdraw {
        /// The peer whose session died.
        peer: RouterId,
        /// The affected prefix.
        prefix: Prefix,
    },
}

impl WorkItem {
    /// The destination this work concerns.
    pub fn prefix(&self) -> Prefix {
        match self {
            WorkItem::Update { msg, .. } => msg.prefix,
            WorkItem::ImplicitWithdraw { prefix, .. } => *prefix,
        }
    }

    /// The peer this work stems from.
    pub fn peer(&self) -> RouterId {
        match self {
            WorkItem::Update { from, .. } => *from,
            WorkItem::ImplicitWithdraw { peer, .. } => *peer,
        }
    }
}

/// Sentinel slot index: the end of a destination list or of the free list.
const NIL: u32 = u32::MAX;

/// Slab and arrival-index entries a drained queue may keep. A larger
/// high-water allocation (a storm's backlog) is given back on drain, so a
/// quiet router does not pin its worst backlog for the rest of the run.
const RETAINED_SLOTS: usize = 64;

/// One slot of the batched disciplines' slab: a queued item chained into
/// its destination's list, or a vacant slot chained into the free list.
#[derive(Clone, Debug)]
struct Slot {
    /// `None` while the slot is on the free list.
    item: Option<WorkItem>,
    /// Arrival stamp of `item`: lets an arrival-index entry tell its own
    /// item from a later one that reused the slot.
    stamp: u64,
    /// The next-older item of the same destination, or the next free slot.
    next: u32,
}

/// One destination's list in the dense per-prefix row.
#[derive(Clone, Copy, Debug)]
struct DestList {
    /// Newest queued item; its `next` chain runs back to the oldest.
    newest: u32,
    /// Items queued for this destination.
    len: u32,
}

impl DestList {
    const EMPTY: DestList = DestList {
        newest: NIL,
        len: 0,
    };
}

/// The router's input queue.
///
/// The FIFO and TCP disciplines keep one physical arrival queue. The
/// batched disciplines keep every queued item in one slab (a `Vec` of
/// slots whose vacant entries form an intrusive free list) and chain each
/// destination's items into a list, newest first, whose head and length
/// sit in a dense row indexed by prefix slot. A batch is one destination's
/// whole list: walking it newest → oldest keeps the first item seen from
/// each peer and deletes the rest as stale, with no per-batch map. Batched
/// picks the destination through an arrival-order index of `(stamp,
/// slot)` entries, pruned lazily; BatchedLargestFirst scans the list of
/// non-empty destinations. Push is O(1) and a batch costs O(items ×
/// distinct peers), and neither allocates once the slab has grown to the
/// backlog; a drained queue gives back a slab larger than
/// [`RETAINED_SLOTS`]. Batch contents, batch order and the counters are
/// bit-identical to a per-destination `VecDeque` formulation (the
/// differential property test in `tests/properties.rs` holds them to it).
/// The queue tracks how many stale items the batched disciplines deleted
/// (the paper's saved work).
#[derive(Clone, Debug)]
pub struct InputQueue {
    discipline: QueueDiscipline,
    /// Fifo / TcpBatch: the single arrival queue.
    items: VecDeque<WorkItem>,
    /// Batched disciplines: every queued item, plus vacant slots.
    slab: Vec<Slot>,
    /// Head of the free list threaded through vacant slab slots.
    free: u32,
    /// Per-destination lists, indexed by prefix slot.
    dests: Vec<DestList>,
    /// Batched: one `(stamp, slot)` entry per push, in arrival order. An
    /// entry is live while its slot still holds the item of that stamp;
    /// a destination only ever empties all at once (a batch drains it
    /// whole), so the front live entry names the oldest-waiting one.
    order: VecDeque<(u64, u32)>,
    /// BatchedLargestFirst: `(stamp of its oldest item, prefix)` for every
    /// non-empty destination, in no particular order.
    active: Vec<(u64, Prefix)>,
    /// Next arrival stamp.
    next_stamp: u64,
    /// Live items across the destination lists.
    live: usize,
    deleted_stale: u64,
    peak_len: usize,
}

impl InputQueue {
    /// Creates an empty queue with the given discipline.
    pub fn new(discipline: QueueDiscipline) -> InputQueue {
        InputQueue {
            discipline,
            items: VecDeque::new(),
            slab: Vec::new(),
            free: NIL,
            dests: Vec::new(),
            order: VecDeque::new(),
            active: Vec::new(),
            next_stamp: 0,
            live: 0,
            deleted_stale: 0,
            peak_len: 0,
        }
    }

    /// The configured discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Appends a work item.
    pub fn push(&mut self, item: WorkItem) {
        match self.discipline {
            QueueDiscipline::Batched | QueueDiscipline::BatchedLargestFirst => {
                self.push_destination(item)
            }
            _ => self.items.push_back(item),
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Batched: prepend the item to its destination's list.
    fn push_destination(&mut self, item: WorkItem) {
        let prefix = item.prefix();
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if prefix.index() >= self.dests.len() {
            self.dests.resize(prefix.index() + 1, DestList::EMPTY);
        }
        let slot = Slot {
            item: Some(item),
            stamp,
            next: self.dests[prefix.index()].newest,
        };
        let idx = if self.free == NIL {
            self.slab.push(slot);
            u32::try_from(self.slab.len() - 1).expect("input queue slab exceeds u32 slots")
        } else {
            let idx = self.free;
            let vacant = &mut self.slab[idx as usize];
            self.free = vacant.next;
            *vacant = slot;
            idx
        };
        let dest = &mut self.dests[prefix.index()];
        if dest.len == 0 && self.discipline == QueueDiscipline::BatchedLargestFirst {
            self.active.push((stamp, prefix));
        }
        dest.newest = idx;
        dest.len += 1;
        if self.discipline == QueueDiscipline::Batched {
            self.order.push_back((stamp, idx));
        }
        self.live += 1;
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len() + self.live
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes committed to queued items (capacity, not just the live
    /// backlog) — a quiet post-storm queue can still pin its high-water
    /// allocation, and the memory benchmark charges for it. Counts the
    /// arrival queue, the slab (the free list lives in its vacant slots),
    /// the per-prefix row and both destination indexes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.items.capacity() * size_of::<WorkItem>()
            + self.slab.capacity() * size_of::<Slot>()
            + self.dests.capacity() * size_of::<DestList>()
            + self.order.capacity() * size_of::<(u64, u32)>()
            + self.active.capacity() * size_of::<(u64, Prefix)>()
    }

    /// Largest queue length observed so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Stale items deleted unprocessed by the batched discipline so far.
    pub fn deleted_stale(&self) -> u64 {
        self.deleted_stale
    }

    /// Zeroes the counters (stale deletions; peak resets to the current
    /// length). Queued items are untouched.
    pub fn reset_counters(&mut self) {
        self.deleted_stale = 0;
        self.peak_len = self.len();
    }

    /// Takes the next processing batch, per the discipline. Returns an
    /// empty vector when the queue is empty.
    ///
    /// Every returned item costs one processing-delay draw; deleted stale
    /// items cost nothing and are counted in [`deleted_stale`].
    ///
    /// [`deleted_stale`]: InputQueue::deleted_stale
    pub fn pop_batch(&mut self) -> Vec<WorkItem> {
        match self.discipline {
            QueueDiscipline::Fifo => self.items.pop_front().into_iter().collect(),
            QueueDiscipline::Batched => {
                let Some(prefix) = self.oldest_waiting_prefix() else {
                    return Vec::new();
                };
                self.pop_destination_batch(prefix)
            }
            QueueDiscipline::BatchedLargestFirst => {
                let Some(prefix) = self.busiest_prefix() else {
                    return Vec::new();
                };
                self.pop_destination_batch(prefix)
            }
            QueueDiscipline::TcpBatch { buffer } => self.pop_peer_batch(buffer.max(1)),
        }
    }

    /// The destination of the oldest item still queued, discarding stale
    /// arrival-index entries along the way. Amortized O(1): every entry
    /// is discarded at most once.
    fn oldest_waiting_prefix(&mut self) -> Option<Prefix> {
        while let Some(&(stamp, idx)) = self.order.front() {
            let slot = &self.slab[idx as usize];
            if slot.stamp == stamp {
                if let Some(item) = &slot.item {
                    return Some(item.prefix());
                }
            }
            self.order.pop_front();
        }
        None
    }

    /// The destination with the most queued items (ties → whichever has
    /// the oldest queued item), taken off the non-empty list.
    fn busiest_prefix(&mut self) -> Option<Prefix> {
        let dests = &self.dests;
        let (pos, _) = self
            .active
            .iter()
            .enumerate()
            .max_by_key(|(_, &(first, prefix))| {
                (dests[prefix.index()].len, std::cmp::Reverse(first))
            })?;
        Some(self.active.swap_remove(pos).1)
    }

    /// Batched: drain every item for the chosen destination, keep only the
    /// newest item per source peer, delete the rest. Returns the kept
    /// items in arrival order.
    fn pop_destination_batch(&mut self, prefix: Prefix) -> Vec<WorkItem> {
        let dest = std::mem::replace(&mut self.dests[prefix.index()], DestList::EMPTY);
        self.live -= dest.len as usize;
        let mut kept: Vec<WorkItem> = Vec::with_capacity(dest.len as usize);
        let mut idx = dest.newest;
        while idx != NIL {
            let slot = &mut self.slab[idx as usize];
            let item = slot.item.take().expect("listed slots are occupied");
            let older = std::mem::replace(&mut slot.next, self.free);
            self.free = idx;
            idx = older;
            // Newest first: a peer already kept has superseded this item.
            if kept.iter().any(|newer| newer.peer() == item.peer()) {
                self.deleted_stale += 1;
            } else {
                kept.push(item);
            }
        }
        kept.reverse();
        if self.live == 0 {
            self.release_drained();
        }
        kept
    }

    /// Resets the batched storage of an empty queue: every slot is vacant
    /// and every arrival-index entry stale. The slab and the destination
    /// indexes go back to the allocator when above [`RETAINED_SLOTS`]
    /// entries; the per-prefix row, sized by the table, stays.
    fn release_drained(&mut self) {
        self.free = NIL;
        if self.slab.capacity() > RETAINED_SLOTS {
            self.slab = Vec::new();
        } else {
            self.slab.clear();
        }
        if self.order.capacity() > RETAINED_SLOTS {
            self.order = VecDeque::new();
        } else {
            self.order.clear();
        }
        if self.active.capacity() > RETAINED_SLOTS {
            self.active = Vec::new();
        }
    }

    /// TcpBatch: drain up to `buffer` items from the head item's peer,
    /// preserving arrival order, collapsing same-destination duplicates
    /// (same peer, so later always supersedes earlier).
    fn pop_peer_batch(&mut self, buffer: usize) -> Vec<WorkItem> {
        let Some(head) = self.items.front() else {
            return Vec::new();
        };
        let peer = head.peer();
        let mut batch: Vec<WorkItem> = Vec::new();
        let mut rest: VecDeque<WorkItem> = VecDeque::with_capacity(self.items.len());
        let mut taken = 0usize;
        for item in self.items.drain(..) {
            if taken < buffer && item.peer() == peer {
                batch.push(item);
                taken += 1;
            } else {
                rest.push_back(item);
            }
        }
        self.items = rest;

        // Same peer ⇒ later message supersedes earlier for the same prefix.
        let mut newest: BTreeMap<Prefix, usize> = BTreeMap::new();
        for (idx, item) in batch.iter().enumerate() {
            newest.insert(item.prefix(), idx);
        }
        let before = batch.len();
        let mut kept: Vec<WorkItem> = Vec::with_capacity(newest.len());
        for (idx, item) in batch.into_iter().enumerate() {
            if newest.get(&item.prefix()) == Some(&idx) {
                kept.push(item);
            }
        }
        self.deleted_stale += (before - kept.len()) as u64;
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use bgpsim_topology::AsId;

    fn upd(from: u32, prefix: u32, hop: u32) -> WorkItem {
        WorkItem::Update {
            from: RouterId::new(from),
            msg: UpdateMsg::advertise(Prefix::new(prefix), AsPath::from_hops([AsId::new(hop)])),
        }
    }

    fn wd(from: u32, prefix: u32) -> WorkItem {
        WorkItem::Update {
            from: RouterId::new(from),
            msg: UpdateMsg::withdraw(Prefix::new(prefix)),
        }
    }

    #[test]
    fn fifo_pops_one_at_a_time_in_order() {
        let mut q = InputQueue::new(QueueDiscipline::Fifo);
        q.push(upd(1, 0, 1));
        q.push(upd(2, 1, 2));
        assert_eq!(q.pop_batch(), vec![upd(1, 0, 1)]);
        assert_eq!(q.pop_batch(), vec![upd(2, 1, 2)]);
        assert!(q.pop_batch().is_empty());
        assert_eq!(q.deleted_stale(), 0);
    }

    #[test]
    fn batched_gathers_whole_destination() {
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        // The paper's §4.4 example: interleaved destinations X (0) and Y (1).
        q.push(upd(1, 0, 1)); // X from peer 1
        q.push(upd(2, 1, 1)); // Y from peer 2
        q.push(upd(3, 0, 2)); // X from peer 3
        q.push(upd(4, 1, 2)); // Y from peer 4
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2, "both X updates processed together");
        assert!(batch.iter().all(|i| i.prefix() == Prefix::new(0)));
        let batch = q.pop_batch();
        assert!(batch.iter().all(|i| i.prefix() == Prefix::new(1)));
        assert!(q.is_empty());
    }

    #[test]
    fn batched_deletes_stale_same_peer_updates() {
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        q.push(upd(1, 0, 1)); // superseded
        q.push(upd(1, 0, 2)); // superseded
        q.push(wd(1, 0)); // newest from peer 1
        q.push(upd(2, 0, 9)); // newest (only) from peer 2
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], wd(1, 0));
        assert_eq!(batch[1], upd(2, 0, 9));
        assert_eq!(q.deleted_stale(), 2);
    }

    #[test]
    fn batched_preserves_destination_fifo_order() {
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        q.push(upd(1, 5, 1));
        q.push(upd(1, 3, 1));
        let first = q.pop_batch();
        assert_eq!(first[0].prefix(), Prefix::new(5), "head destination first");
    }

    #[test]
    fn implicit_withdraws_batch_like_updates() {
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        q.push(WorkItem::ImplicitWithdraw {
            peer: RouterId::new(1),
            prefix: Prefix::new(0),
        });
        q.push(upd(1, 0, 4));
        let batch = q.pop_batch();
        // Same peer: the later update supersedes the implicit withdraw.
        assert_eq!(batch, vec![upd(1, 0, 4)]);
        assert_eq!(q.deleted_stale(), 1);
    }

    #[test]
    fn tcp_batch_drains_single_peer_up_to_buffer() {
        let mut q = InputQueue::new(QueueDiscipline::TcpBatch { buffer: 2 });
        q.push(upd(1, 0, 1));
        q.push(upd(2, 1, 1));
        q.push(upd(1, 2, 1));
        q.push(upd(1, 3, 1));
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2, "buffer caps the batch");
        assert!(batch.iter().all(|i| i.peer() == RouterId::new(1)));
        assert_eq!(batch[0].prefix(), Prefix::new(0));
        assert_eq!(batch[1].prefix(), Prefix::new(2));
        // Next batch starts at the new head (peer 2).
        let batch = q.pop_batch();
        assert_eq!(batch[0].peer(), RouterId::new(2));
    }

    #[test]
    fn tcp_batch_collapses_same_prefix_within_batch() {
        let mut q = InputQueue::new(QueueDiscipline::TcpBatch { buffer: 8 });
        q.push(upd(1, 0, 1));
        q.push(upd(1, 0, 2));
        q.push(upd(1, 1, 1));
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], upd(1, 0, 2));
        assert_eq!(q.deleted_stale(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = InputQueue::new(QueueDiscipline::Fifo);
        for i in 0..5 {
            q.push(upd(1, i, 1));
        }
        q.pop_batch();
        q.push(upd(1, 9, 1));
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn empty_pop_is_empty_for_all_disciplines() {
        for d in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Batched,
            QueueDiscipline::BatchedLargestFirst,
            QueueDiscipline::TcpBatch { buffer: 4 },
        ] {
            assert!(InputQueue::new(d).pop_batch().is_empty());
        }
    }

    #[test]
    fn batched_oldest_waiting_survives_redrain_interleave() {
        // P1 arrives, then P2, then P1 is drained whole; a NEW P1 item
        // arrives afterwards. The oldest-waiting destination is now P2 —
        // a stale arrival-index entry for the drained P1 item must not
        // put P1 ahead of it.
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        q.push(upd(1, 1, 1)); // P1
        q.push(upd(1, 2, 1)); // P2
        assert_eq!(q.pop_batch(), vec![upd(1, 1, 1)]);
        q.push(upd(1, 1, 2)); // P1 again, younger than the queued P2
        assert_eq!(q.pop_batch(), vec![upd(1, 2, 1)], "P2 waited longest");
        assert_eq!(q.pop_batch(), vec![upd(1, 1, 2)]);
        assert!(q.is_empty());
        assert_eq!(q.deleted_stale(), 0);
    }

    #[test]
    fn batched_pop_cost_is_per_destination_not_per_queue() {
        // 10k destinations × 2 peers: draining them all must touch each
        // item O(1) times, not O(queue) per batch. (The quadratic
        // formulation took minutes here and hours at full-table scale —
        // this finishes instantly or the suite times out.)
        let n = 10_000u32;
        let mut q = InputQueue::new(QueueDiscipline::Batched);
        for p in 0..n {
            q.push(upd(1, p, 1));
            q.push(upd(2, p, 1));
        }
        assert_eq!(q.len(), 2 * n as usize);
        let mut batches = 0u32;
        while !q.is_empty() {
            let batch = q.pop_batch();
            assert_eq!(batch.len(), 2, "one batch per destination");
            assert_eq!(batch[0].prefix(), Prefix::new(batches));
            batches += 1;
        }
        assert_eq!(batches, n);
        assert_eq!(q.deleted_stale(), 0);
    }

    #[test]
    fn largest_first_serves_hottest_destination() {
        let mut q = InputQueue::new(QueueDiscipline::BatchedLargestFirst);
        q.push(upd(1, 0, 1)); // prefix 0: 1 item (arrived first)
        q.push(upd(1, 7, 1)); // prefix 7: 3 items from 3 peers
        q.push(upd(2, 7, 2));
        q.push(upd(3, 7, 3));
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 3, "hot destination first");
        assert!(batch.iter().all(|i| i.prefix() == Prefix::new(7)));
        let batch = q.pop_batch();
        assert_eq!(batch, vec![upd(1, 0, 1)]);
    }

    #[test]
    fn largest_first_breaks_ties_by_arrival() {
        let mut q = InputQueue::new(QueueDiscipline::BatchedLargestFirst);
        q.push(upd(1, 5, 1));
        q.push(upd(1, 3, 1));
        let batch = q.pop_batch();
        assert_eq!(
            batch[0].prefix(),
            Prefix::new(5),
            "tie goes to the oldest head"
        );
    }

    #[test]
    fn drained_queue_gives_back_its_backlog() {
        for d in [
            QueueDiscipline::Batched,
            QueueDiscipline::BatchedLargestFirst,
        ] {
            let mut q = InputQueue::new(d);
            // A 10k-item storm over 100 destinations × 100 peers.
            for round in 0..10_000u32 {
                q.push(upd(round % 100, round / 100, round));
            }
            let backlog = q.heap_bytes();
            assert!(backlog >= 10_000 * std::mem::size_of::<Slot>(), "{d:?}");
            while !q.pop_batch().is_empty() {}
            assert!(q.is_empty());
            // What stays is the per-prefix row: 100 destinations, 8 bytes
            // each, against the backlog's ~500 KiB.
            assert!(
                q.heap_bytes() <= 2048,
                "{d:?}: {} bytes pinned after drain",
                q.heap_bytes()
            );
            // And the queue still works from the released state.
            q.push(upd(1, 3, 1));
            q.push(upd(1, 3, 2));
            assert_eq!(q.pop_batch(), vec![upd(1, 3, 2)]);
        }
    }

    #[test]
    fn largest_first_still_deletes_stale() {
        let mut q = InputQueue::new(QueueDiscipline::BatchedLargestFirst);
        q.push(upd(1, 7, 1));
        q.push(upd(1, 7, 2));
        q.push(upd(1, 7, 3));
        let batch = q.pop_batch();
        assert_eq!(batch, vec![upd(1, 7, 3)]);
        assert_eq!(q.deleted_stale(), 2);
    }
}
