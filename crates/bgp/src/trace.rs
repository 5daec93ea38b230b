//! Node-level trace events.
//!
//! When tracing is enabled ([`BgpNode::set_tracing`]), every handler
//! records the protocol-internal happenings the end-of-run counters
//! cannot show — the dynamics the paper's explanations rest on: stale
//! updates deleted before processing (§4.4), MRAI level transitions with
//! the detector reading that caused them (§4.3), queue depth over time
//! (the unfinished-work signal), and per-destination best-path churn.
//!
//! Events are buffered inside the node in handler-execution order and
//! drained by the simulation driver ([`BgpNode::drain_trace`]), which
//! stamps them with the global `(time, node, seq)` coordinates. The node
//! itself never sees a clock beyond the handler's `now`, keeping the
//! sans-io contract intact.
//!
//! Everything here is observation only: recording an event never touches
//! the RNG, the RIBs, or any timer, so a traced run is bit-identical to
//! an untraced one.
//!
//! [`BgpNode::set_tracing`]: crate::BgpNode::set_tracing
//! [`BgpNode::drain_trace`]: crate::BgpNode::drain_trace

use bgpsim_des::SimDuration;
use bgpsim_topology::RouterId;
use serde::{Deserialize, Serialize};

use crate::msg::Prefix;

/// One observation made inside a node handler.
///
/// Serialized (externally tagged) into the JSONL trace stream; the schema
/// is documented in DESIGN.md §11.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NodeEvent {
    /// An UPDATE left this node towards `to`.
    Sent {
        /// Receiving peer.
        to: RouterId,
        /// Destination the update concerns.
        prefix: Prefix,
        /// `true` for an announcement, `false` for a withdrawal.
        advertise: bool,
    },
    /// An UPDATE from `from` arrived (and was queued, unless the session
    /// was already torn down).
    Received {
        /// Sending peer.
        from: RouterId,
        /// Destination the update concerns.
        prefix: Prefix,
        /// `true` for an announcement, `false` for a withdrawal.
        advertise: bool,
    },
    /// One queued work item finished processing (RIB-In applied).
    Processed {
        /// The peer whose RIB-In entry the item touched.
        peer: RouterId,
        /// Destination the item concerns.
        prefix: Prefix,
    },
    /// The queue discipline deleted `count` stale updates unprocessed
    /// (batching, §4.4).
    StaleDeleted {
        /// Updates discarded by this queue operation.
        count: u64,
    },
    /// The decision process ran for `prefix`.
    Decision {
        /// Destination re-decided.
        prefix: Prefix,
        /// `true` when the incremental fast path could not resolve and a
        /// full candidate rescan ran.
        full_rescan: bool,
    },
    /// The decision process changed the installed best route.
    BestChanged {
        /// Destination whose best route changed.
        prefix: Prefix,
        /// AS-path length of the new best (`None` = route removed).
        path_len: Option<u32>,
    },
    /// An MRAI timer towards `peer` started.
    MraiStarted {
        /// The peer whose timer started.
        peer: RouterId,
        /// `None` in per-peer scope; the destination in per-destination
        /// scope.
        prefix: Option<Prefix>,
        /// The (already jittered) interval.
        delay: SimDuration,
    },
    /// A live MRAI timer towards `peer` expired (stale generations are
    /// not reported).
    MraiExpired {
        /// The peer whose timer expired.
        peer: RouterId,
        /// Timer scope, as in [`NodeEvent::MraiStarted`].
        prefix: Option<Prefix>,
    },
    /// The dynamic-MRAI controller moved a level (§4.3).
    MraiLevel {
        /// Level index before the change.
        from: usize,
        /// Level index after the change.
        to: usize,
        /// The detector reading that caused the move: unfinished work in
        /// seconds, busy fraction, or update count, depending on the
        /// configured [`Detector`](crate::dynmrai::Detector).
        reading: f64,
    },
    /// Input-queue depth after a queue-affecting handler ran.
    QueueDepth {
        /// Updates waiting (not yet in service).
        queued: u32,
        /// Updates in the batch currently in service.
        in_service: u32,
    },
}
