//! The primary-side replication runtime and the primary coordinator.
//!
//! [`PrimaryCore`] implements everything the techniques share: the
//! buffered record log and its flush policy, the fan-out links to the
//! standbys, the non-deterministic native-method interception (§4.1),
//! output commit with pessimistic acknowledgment waits (§3.4),
//! side-effect-handler `log` upcalls (§4.4), and fail-stop fault
//! injection. [`Primary`] wraps it with the technique's record state
//! (§4.2):
//!
//! * *replicated lock synchronization* logs an id map on first
//!   acquisition and a lock acquisition record on every monitor
//!   acquisition — or, interval-compressed, one record per run of
//!   consecutive acquisitions by one thread;
//! * *replicated thread scheduling* charges the per-instruction progress
//!   bookkeeping and logs a thread-schedule record whenever the scheduler
//!   switches between two application threads.

use crate::backup::{Control, RecvWindow};
use crate::codec::{
    build_batch_frame, build_epoch_frame, build_vote_frame, flush_digest, frame_digest, seal,
    RecordEncoder,
};
use crate::ftjvm::Technique;
use crate::records::{sig_hash, LoggedResult, Record, WireValue};
use crate::se::SeRegistry;
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{
    Category, ChannelStats, CostModel, FaultPlan, LossyChannel, NetFaultPlan, SimChannel, SimTime,
    TimeAccount, WireCodec, WireError, WireReader, WireWriter,
};

use ftjvm_vm::exec::VmCore;
use ftjvm_vm::native::{NativeDecl, NativeOutcome};
use ftjvm_vm::{
    Coordinator, NativeDirective, ObjRef, StopReason, SwitchReason, ThreadObs, ThreadSnap, Value,
    VmError, VtPath,
};
use std::collections::{HashMap, VecDeque};

/// One unacknowledged sealed frame in the sender's sliding window.
#[derive(Debug)]
struct Unacked {
    sealed: Bytes,
    /// Next timeout-retransmission deadline.
    deadline: SimTime,
    /// Current retransmission timeout (doubles per expiry, capped).
    rto: SimTime,
    last_sent: SimTime,
}

/// Sender-side sliding-window retransmission buffer: every sealed frame
/// stays here until the receiver's cumulative ACK covers it; timeouts
/// back off exponentially, NACKs trigger prompt retransmission.
///
/// Sequence numbers are issued consecutively and a cumulative ACK only
/// ever releases a prefix, so the unacked frames are always the
/// contiguous run `base..next_seq`, kept as a deque indexed by
/// `seq - base`.
#[derive(Debug)]
pub struct SendWindow {
    next_seq: u64,
    /// Sequence number of `window[0]` (equals `next_seq` when empty).
    base: u64,
    window: VecDeque<Unacked>,
    rto_base: SimTime,
    rto_cap: SimTime,
    /// Minimum spacing between retransmissions of one frame (absorbs
    /// NACK bursts for the same gap).
    min_spacing: SimTime,
    /// Frames retransmitted (timeout- or NACK-triggered).
    pub retransmits: u64,
    /// Instant the most recent cumulative ACK was processed.
    last_ack_at: SimTime,
}

impl SendWindow {
    pub(crate) fn new(rto_base: SimTime) -> Self {
        SendWindow {
            next_seq: 0,
            base: 0,
            window: VecDeque::new(),
            rto_base,
            rto_cap: SimTime::from_nanos(rto_base.as_nanos().saturating_mul(32)),
            min_spacing: SimTime::from_nanos(rto_base.as_nanos() / 4),
            retransmits: 0,
            last_ack_at: SimTime::ZERO,
        }
    }

    /// Seals `payload` with the next sequence number — as a frame that
    /// more frames of its flush follow when `more` — and starts tracking
    /// it; returns the sealed frame to put on the wire.
    pub(crate) fn track(&mut self, now: SimTime, payload: &[u8], more: bool) -> Bytes {
        let sealed = seal(self.next_seq, payload, more);
        self.next_seq += 1;
        self.window.push_back(Unacked {
            sealed: sealed.clone(),
            deadline: now + self.rto_base,
            rto: self.rto_base,
            last_sent: now,
        });
        sealed
    }

    /// Applies one control message received at `at`; frames to retransmit
    /// now are appended to `resend`.
    pub(crate) fn on_control(&mut self, at: SimTime, ctrl: Control, resend: &mut Vec<Bytes>) {
        match ctrl {
            Control::Ack { next } => {
                while self.base < next && self.window.pop_front().is_some() {
                    self.base += 1;
                }
                self.last_ack_at = self.last_ack_at.max(at);
            }
            Control::Nack { seq } => {
                let slot = seq.checked_sub(self.base).and_then(|i| usize::try_from(i).ok());
                if let Some(u) = slot.and_then(|i| self.window.get_mut(i)) {
                    if at >= u.last_sent + self.min_spacing {
                        u.last_sent = at;
                        u.deadline = at + u.rto;
                        self.retransmits += 1;
                        resend.push(u.sealed.clone());
                    }
                }
            }
        }
    }

    /// The earliest pending timeout, if any frame is unacknowledged.
    fn next_deadline(&self) -> Option<SimTime> {
        // Matches `expired`: only the head-of-line frame owns a timer.
        self.window.front().map(|u| u.deadline)
    }

    /// Appends to `resend` the frames whose timeout fired at or before
    /// `now`; each has its RTO doubled (up to the cap) and its deadline
    /// pushed out.
    fn expired(&mut self, now: SimTime, resend: &mut Vec<Bytes>) {
        // Only the lowest outstanding sequence can time out (as in TCP's
        // RTO of the first unacked segment). Later frames are often
        // already buffered at the receiver behind a gap — the cumulative
        // ack cannot say so, and retransmitting all of them on every gap
        // would collapse into go-back-N. Once the head is repaired the
        // cumulative ack clears the rest (or exposes the next true loss).
        if let Some(u) = self.window.front_mut() {
            if u.deadline <= now {
                u.rto = SimTime::from_nanos(u.rto.as_nanos().saturating_mul(2)).min(self.rto_cap);
                u.last_sent = now;
                u.deadline = now + u.rto;
                self.retransmits += 1;
                resend.push(u.sealed.clone());
            }
        }
    }

    pub(crate) fn outstanding(&self) -> usize {
        self.window.len()
    }
}

/// The reliable-delivery sublayer, co-simulating both endpoints over one
/// lossy link: the primary's [`SendWindow`] and the backup's
/// [`RecvWindow`], plus the (reliable, tiny) reverse control path.
///
/// The primary drives it from its own simulated clock: every tick pumps
/// arrivals, control processing, and retransmission timeouts up to "now";
/// output commit spins the event loop forward until the window is empty
/// (the pessimistic ack wait). The backup side only ever consumes frames
/// this layer has verified and released in order.
///
/// The event loop allocates nothing per arrival, per pass or per expiry:
/// arrivals are popped off the link one at a time, and the receiver's
/// replies and the frames due for retransmission pass through two scratch
/// buffers the link keeps.
#[derive(Debug)]
pub struct ReliableLink {
    link: LossyChannel,
    window: SendWindow,
    recv: RecvWindow,
    /// Control messages in flight on the reverse path, time-sorted.
    ctrl: VecDeque<(SimTime, Control)>,
    /// The receiver's replies to the arrival being processed.
    replies: Vec<Control>,
    /// Frames due for retransmission in the current pass.
    resend: Vec<Bytes>,
    /// Sender CPU cost accrued by retransmissions since last collected.
    pending_cost: SimTime,
    ack_round_trips: u64,
}

impl ReliableLink {
    /// Builds the sublayer over a lossy link. The base RTO is derived
    /// from the link parameters (≈2× a loaded round trip).
    pub fn new(link: LossyChannel) -> Self {
        let p = link.params();
        let rtt = p.propagation + p.propagation + p.per_message + p.recv_per_message + p.ack_cost;
        // Base timeout: two RTTs of slack plus four times the plan's
        // jitter bound, so delay variance alone cannot fire the timer.
        let jitter = link.plan().jitter;
        let rto_base = rtt + rtt + SimTime::from_nanos(jitter.as_nanos().saturating_mul(4));
        ReliableLink {
            link,
            window: SendWindow::new(rto_base),
            recv: RecvWindow::new(),
            ctrl: VecDeque::new(),
            replies: Vec::new(),
            resend: Vec::new(),
            pending_cost: SimTime::ZERO,
            ack_round_trips: 0,
        }
    }

    /// Seals, tracks, and transmits one frame; returns the sender CPU cost.
    pub fn send(&mut self, now: SimTime, payload: Bytes) -> SimTime {
        self.send_part(now, payload, false)
    }

    /// [`ReliableLink::send`] for one frame of a flush: with `more`, more
    /// frames of the same flush follow it.
    fn send_part(&mut self, now: SimTime, payload: Bytes, more: bool) -> SimTime {
        let sealed = self.window.track(now, &payload, more);
        self.link.send(now, sealed)
    }

    /// Advances the transport's event processing to `now`: delivers link
    /// arrivals into the receive window, turns around control messages,
    /// applies those that have arrived back, and fires due timeouts.
    pub fn pump(&mut self, now: SimTime) {
        let p = self.link.params();
        let (ack_cost, propagation) = (p.ack_cost, p.propagation);
        loop {
            let mut progressed = false;
            while let Some((at, raw)) = self.link.pop_ready(now) {
                self.recv.offer(at, raw, &mut self.replies);
                let reply_at = at + ack_cost + propagation;
                for c in self.replies.drain(..) {
                    let pos = self.ctrl.partition_point(|(t, _)| *t <= reply_at);
                    self.ctrl.insert(pos, (reply_at, c));
                }
                progressed = true;
            }
            while let Some(&(at, ctrl)) = self.ctrl.front() {
                if at > now {
                    break;
                }
                self.ctrl.pop_front();
                self.window.on_control(at, ctrl, &mut self.resend);
                progressed = true;
            }
            self.window.expired(now, &mut self.resend);
            for sealed in self.resend.drain(..) {
                self.pending_cost += self.link.send(now, sealed);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Takes the CPU cost retransmissions accrued since the last call, so
    /// the primary can charge it to its communication category.
    fn collect_cost(&mut self) -> SimTime {
        std::mem::take(&mut self.pending_cost)
    }

    /// Runs the event loop until every tracked frame is acknowledged,
    /// returning the instant the final ACK arrived — the pessimistic
    /// output-commit wait under a lossy link.
    pub fn ack_arrival(&mut self, now: SimTime) -> SimTime {
        self.ack_round_trips += 1;
        self.pump(now);
        let mut t = now;
        // Bounded for pathological plans (e.g. a partition window that
        // swallows every retransmission for a long stretch): each
        // iteration advances the simulated event horizon, so real plans
        // converge in a handful of rounds per lost frame.
        for _ in 0..1_000_000 {
            if self.window.outstanding() == 0 {
                break;
            }
            let next = [
                self.link.next_arrival(),
                self.ctrl.front().map(|(at, _)| *at),
                self.window.next_deadline(),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some(nt) = next else { break };
            t = t.max(nt);
            self.pump(t);
        }
        self.window.last_ack_at.max(now)
    }

    /// Verified, in-order payloads released by the receive window up to
    /// `now` (pumping the transport first).
    pub fn recv_verified(&mut self, now: SimTime) -> Vec<(SimTime, Bytes)> {
        self.pump(now);
        self.recv.take_ready()
    }

    /// Takeover: every frame already on the wire still arrives, then the
    /// receive window keeps only the longest verified in-order prefix —
    /// frames buffered beyond an unresolved gap are discarded (§ the
    /// paper's epoch argument: equivalent to records lost in the crashed
    /// primary's buffer).
    pub fn drain_prefix(&mut self) -> Vec<(SimTime, Bytes)> {
        // Nobody is left to answer: the receiver's replies are dropped.
        for (at, raw) in self.link.drain() {
            self.recv.offer(at, raw, &mut self.replies);
            self.replies.clear();
        }
        let (prefix, _discarded) = self.recv.take_prefix();
        prefix
    }

    /// Merged statistics: link-level counters plus the protocol counters
    /// from both window endpoints.
    pub fn stats(&self) -> ChannelStats {
        let mut s = self.link.stats();
        s.ack_round_trips = self.ack_round_trips;
        s.retransmits = self.window.retransmits;
        s.dup_deliveries = self.recv.dup_deliveries;
        s.corrupted_frames = self.recv.corrupted_frames;
        s.reordered = self.recv.reordered;
        s.nacks = self.recv.nacks;
        s
    }

    /// Frames still in flight on the forward link.
    pub fn in_flight_len(&self) -> usize {
        self.link.in_flight_len()
    }
}

/// The primary's log transport: either the paper's perfect FIFO channel
/// (frames travel bare) or the reliability sublayer over an adversarial
/// lossy link (frames travel sealed).
#[derive(Debug)]
pub enum LogChannel {
    /// Reliable FIFO — the paper's 100 Mbps dedicated-segment assumption.
    Perfect(SimChannel),
    /// Lossy datagram link plus seq/CRC/ack/nack/retransmit sublayer.
    Reliable(Box<ReliableLink>),
}

impl LogChannel {
    /// Sends one log frame, returning the sender-side CPU cost.
    pub fn send(&mut self, now: SimTime, payload: Bytes) -> SimTime {
        self.send_part(now, payload, false)
    }

    /// Sends one frame of a flush; `more` says more frames of the same
    /// flush follow it. Only a sealed frame carries that: the perfect
    /// channel never delivers part of a flush.
    fn send_part(&mut self, now: SimTime, payload: Bytes, more: bool) -> SimTime {
        match self {
            LogChannel::Perfect(ch) => ch.send(now, payload),
            LogChannel::Reliable(link) => link.send_part(now, payload, more),
        }
    }

    /// The instant an acknowledgment of everything sent so far arrives
    /// back at the primary (the pessimistic output-commit wait). On the
    /// reliable transport this spins the retransmission event loop until
    /// the send window is empty.
    pub fn ack_arrival(&mut self, now: SimTime) -> SimTime {
        match self {
            LogChannel::Perfect(ch) => ch.ack_arrival(now),
            LogChannel::Reliable(link) => link.ack_arrival(now),
        }
    }

    /// Verified in-order payloads delivered by `now`, for a co-simulated
    /// hot standby.
    pub fn recv_ready(&mut self, now: SimTime) -> Vec<(SimTime, Bytes)> {
        match self {
            LogChannel::Perfect(ch) => ch.recv_ready(now),
            LogChannel::Reliable(link) => link.recv_verified(now),
        }
    }

    /// Takeover: delivers everything that will ever arrive. On the
    /// reliable transport this is the longest verified frame prefix.
    pub fn drain(&mut self) -> Vec<(SimTime, Bytes)> {
        match self {
            LogChannel::Perfect(ch) => ch.drain(),
            LogChannel::Reliable(link) => link.drain_prefix(),
        }
    }

    /// Frames still in flight toward the backup.
    pub fn in_flight_len(&self) -> usize {
        match self {
            LogChannel::Perfect(ch) => ch.in_flight_len(),
            LogChannel::Reliable(link) => link.in_flight_len(),
        }
    }

    /// Current send-side depth: in-flight frames on a perfect channel,
    /// unacknowledged frames in the sliding window on a reliable one.
    pub fn depth(&self) -> usize {
        match self {
            LogChannel::Perfect(ch) => ch.in_flight_len(),
            LogChannel::Reliable(link) => link.window.outstanding(),
        }
    }

    /// Aggregate channel statistics (fault and retransmission counters
    /// included on the reliable transport).
    pub fn stats(&self) -> ChannelStats {
        match self {
            LogChannel::Perfect(ch) => ch.stats(),
            LogChannel::Reliable(link) => link.stats(),
        }
    }

    /// Periodic transport maintenance: pump timers/acks up to `now` and
    /// return the retransmission CPU cost accrued since the last call.
    fn maintain(&mut self, now: SimTime) -> SimTime {
        match self {
            LogChannel::Perfect(_) => SimTime::ZERO,
            LogChannel::Reliable(link) => {
                link.pump(now);
                link.collect_cost()
            }
        }
    }

    /// Graceful-completion settle: the instant every outstanding frame is
    /// acknowledged (a crashing primary never calls this — its unacked
    /// frames are simply lost, like records still in its buffer).
    fn settle(&mut self, now: SimTime) -> SimTime {
        match self {
            LogChannel::Perfect(_) => now,
            LogChannel::Reliable(link) => {
                if link.window.outstanding() == 0 {
                    link.pump(now);
                    now
                } else {
                    link.ack_arrival(now)
                }
            }
        }
    }
}

/// Output-commit acknowledgment policy across a replica group's fan-out
/// links: how many standbys must acknowledge the flushed log before an
/// output may be performed (§3.4 generalized to k standbys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckPolicy {
    /// The fastest live standby's acknowledgment suffices.
    Any,
    /// A majority of live standbys (`n/2 + 1`) must acknowledge.
    Majority,
    /// Every live standby must acknowledge — the strictest policy and the
    /// single-backup pair's behavior, hence the default.
    #[default]
    All,
}

impl AckPolicy {
    /// Acknowledgments required out of `n` live links (the commit waits
    /// for the m-th smallest ack arrival). Zero when no links are live.
    pub fn required(self, n: usize) -> usize {
        match self {
            AckPolicy::Any => n.min(1),
            AckPolicy::Majority => {
                if n == 0 {
                    0
                } else {
                    n / 2 + 1
                }
            }
            AckPolicy::All => n,
        }
    }
}

/// One fan-out link toward a standby, as the primary sees it.
#[derive(Debug)]
struct Link {
    chan: LogChannel,
    /// Dead links are skipped by sends, maintenance, and ack waits.
    live: bool,
    /// This replica's own send path byzantine-flipped the link's record
    /// stream at least once — its standby's digest votes can never match
    /// the claim, so vote gating excludes it.
    tainted: bool,
}

/// Shared primary-side machinery.
pub struct PrimaryCore {
    /// One link per standby, in rank order. A pair has exactly one.
    links: Vec<Link>,
    cost: CostModel,
    fault: FaultPlan,
    buffer: Vec<bytes::Bytes>,
    buffered_bytes: usize,
    /// Flush when this many bytes are buffered (also flushed at output
    /// commit and program exit — the paper's "periodically or on an output
    /// commit").
    pub flush_threshold: usize,
    /// Record encoding on the wire. Under [`WireCodec::Compact`] records
    /// are delta/varint-encoded at log time and a flush sends one batch
    /// frame instead of one message per record.
    codec: WireCodec,
    enc: RecordEncoder,
    crashed: bool,
    error: Option<VmError>,
    units: u64,
    flushes: u64,
    next_output_id: u64,
    heartbeat_interval: SimTime,
    next_heartbeat: SimTime,
    nd_seq: HashMap<VtPath, u64>,
    out_seq: HashMap<VtPath, u64>,
    se: SeRegistry,
    /// Epoch checkpointing: cut after this many flushes (`None` disables
    /// everything below — the default path is untouched).
    checkpoint_interval: Option<u64>,
    /// Epochs cut so far; epoch 0 is "before the first cut".
    epoch: u64,
    /// `flushes` value at the last cut, to schedule the next one.
    flushes_at_cut: u64,
    /// Record-bearing frames (and their bytes) flushed since the last cut
    /// — the log suffix the cut truncates. Counted, not kept: a joiner
    /// is grounded on a fresh cut, so it never replays this suffix.
    /// Zero unless checkpointing is enabled.
    retained_frames: u64,
    retained_bytes: u64,
    /// Latest side-effect-handler state payload per handler, captured so a
    /// cut can transplant volatile-state knowledge into the snapshot's
    /// extension section. Only maintained while checkpointing.
    last_se: HashMap<u8, Bytes>,
    /// Degraded mode: the backup is known dead, output commits stop
    /// waiting for acknowledgments (there is no one to wait for) and the
    /// uncovered outputs are counted.
    degraded: bool,
    ack_policy: AckPolicy,
    /// BFT-lite voting: total matching digests (the primary's own claim
    /// included) required before an output releases. `None` disables the
    /// vote frames and the gating entirely.
    vote_quorum: Option<u32>,
    /// Byzantine fault injection applied by this replica's send path
    /// (bit flips after digest computation, before CRC sealing).
    byz_plan: Option<NetFaultPlan>,
    /// Index of the next record-bearing frame in this reign's broadcast
    /// stream; digest votes and byzantine flip decisions key off it.
    record_frame_index: u64,
    /// Honest per-frame digests of the flush currently being sent. One
    /// vote frame per flush covers the whole group — records and their
    /// side-effect snapshots verify (and release) atomically downstream.
    flush_claims: Vec<u32>,
    /// Aggregate statistics (Table 2 raw material).
    pub stats: ReplicationStats,
}

impl std::fmt::Debug for PrimaryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrimaryCore")
            .field("crashed", &self.crashed)
            .field("stats", &self.stats)
            .finish()
    }
}

impl PrimaryCore {
    /// Creates the shared primary machinery over `links`, one transport
    /// per standby in rank order, all live: one for a pair, `k` for a
    /// group fanning out to `k` standbys. The runtime builds
    /// [`LogChannel::Reliable`] links when a net-fault plan is armed.
    pub fn new(links: Vec<LogChannel>, cost: CostModel, fault: FaultPlan, se: SeRegistry) -> Self {
        PrimaryCore {
            links: links
                .into_iter()
                .map(|chan| Link { chan, live: true, tainted: false })
                .collect(),
            cost,
            fault,
            buffer: Vec::new(),
            buffered_bytes: 0,
            flush_threshold: 16 * 1024,
            codec: WireCodec::Fixed,
            enc: RecordEncoder::new(),
            crashed: false,
            error: None,
            units: 0,
            flushes: 0,
            next_output_id: 0,
            heartbeat_interval: SimTime::from_millis(50),
            next_heartbeat: SimTime::ZERO,
            nd_seq: HashMap::new(),
            out_seq: HashMap::new(),
            se,
            checkpoint_interval: None,
            epoch: 0,
            flushes_at_cut: 0,
            retained_frames: 0,
            retained_bytes: 0,
            last_se: HashMap::new(),
            degraded: false,
            ack_policy: AckPolicy::All,
            vote_quorum: None,
            byz_plan: None,
            record_frame_index: 0,
            flush_claims: Vec::new(),
            stats: ReplicationStats::default(),
        }
    }

    /// Selects the wire codec. Call before the first record is logged: the
    /// compact encoder's delta context starts at the log's beginning.
    pub fn set_codec(&mut self, codec: WireCodec) {
        debug_assert_eq!(self.stats.messages_logged(), 0, "codec chosen after logging began");
        self.codec = codec;
    }

    /// Consumes the core, returning every link in rank order (the driver
    /// drains each into its standby) and the final statistics.
    pub fn into_parts(self) -> (Vec<LogChannel>, ReplicationStats) {
        (self.links.into_iter().map(|l| l.chan).collect(), self.stats)
    }

    /// Replication statistics so far (final values via
    /// [`into_parts`](PrimaryCore::into_parts)).
    pub fn stats(&self) -> &ReplicationStats {
        &self.stats
    }

    // --- Fan-out (one link per standby, in rank order) --------------------

    /// Links currently believed live.
    pub fn live_links(&self) -> usize {
        self.links.iter().filter(|l| l.live).count()
    }

    /// Selects the output-commit acknowledgment policy (default
    /// [`AckPolicy::All`], the single-backup behavior).
    pub fn set_ack_policy(&mut self, policy: AckPolicy) {
        self.ack_policy = policy;
    }

    /// Enables BFT-lite digest voting: every record-bearing frame is
    /// followed by a digest vote on each link, and outputs release only
    /// once `q` matching digests (the primary's claim included) exist.
    pub fn set_vote_quorum(&mut self, quorum: Option<u32>) {
        self.vote_quorum = quorum;
    }

    /// Arms sender-side byzantine corruption: the plan's byzantine knobs
    /// flip record payload bits after digests are computed but before the
    /// frames are CRC-sealed.
    pub fn set_byzantine(&mut self, plan: NetFaultPlan) {
        self.byz_plan = plan.is_byzantine().then_some(plan);
    }

    /// The digest-vote quorum, if voting is enabled.
    pub fn vote_quorum(&self) -> Option<u32> {
        self.vote_quorum
    }

    /// Marks a link's standby dead: sends and ack waits skip it.
    pub fn mark_link_dead(&mut self, idx: usize) {
        if let Some(l) = self.links.get_mut(idx) {
            l.live = false;
        }
    }

    /// One fan-out link by index (0 = the pair channel).
    pub fn link_mut(&mut self, idx: usize) -> &mut LogChannel {
        &mut self.links[idx].chan
    }

    /// Replaces link `idx`'s transport (state-transfer re-integration of
    /// that standby), reviving the link and clearing its taint — the
    /// replacement's state comes from an honest snapshot cut for it, not
    /// the flipped stream. Returns the old transport.
    pub fn swap_link(&mut self, idx: usize, new: LogChannel) -> LogChannel {
        let old =
            std::mem::replace(&mut self.links[idx], Link { chan: new, live: true, tainted: false });
        old.chan
    }

    /// Sends one frame on every live link (heartbeats, epoch marks —
    /// anything that carries no digest vote).
    fn broadcast(&mut self, frame: Bytes, acct: &mut TimeAccount) {
        let now = acct.now();
        for link in self.links.iter_mut().filter(|l| l.live) {
            let cost = link.chan.send(now, frame.clone());
            acct.charge(Category::Communication, cost);
        }
    }

    /// Sends one record-bearing frame on every live link, applying any
    /// armed byzantine flip per link (equivocation: the copies may differ).
    /// When voting is enabled the frame's honest digest joins the current
    /// flush's claim set — the vote covering the whole flush follows in
    /// [`Self::flush`]. The claims cover the *honest* payloads — flips
    /// happen after digest computation, so only voting can expose them.
    fn send_record_frame(&mut self, frame: Bytes, more: bool, acct: &mut TimeAccount) {
        let fi = self.record_frame_index;
        self.record_frame_index += 1;
        if self.vote_quorum.is_some() {
            self.flush_claims.push(frame_digest(&frame));
        }
        let now = acct.now();
        for (idx, link) in self.links.iter_mut().enumerate().filter(|(_, l)| l.live) {
            let flip =
                self.byz_plan.as_ref().and_then(|p| p.byzantine_flip(fi, idx as u32, frame.len()));
            let payload = match flip {
                Some((pos, mask)) => {
                    let mut raw = frame.to_vec();
                    raw[pos] ^= mask;
                    link.tainted = true;
                    self.stats.byzantine_flips += 1;
                    Bytes::from(raw)
                }
                None => frame.clone(),
            };
            let cost = link.chan.send_part(now, payload, more);
            acct.charge(Category::Communication, cost);
        }
    }

    /// Ends the current flush's vote group: one digest vote per live link
    /// covering every record frame of the flush, in order. Voting per
    /// flush (not per frame) keeps the atomic sets the protocol relies on
    /// — a native's result and its side-effect snapshot, an output commit
    /// and its payload — inside one verification unit, so a mismatch can
    /// never release half of one.
    fn send_flush_vote(&mut self, acct: &mut TimeAccount) {
        if self.flush_claims.is_empty() {
            return;
        }
        let claim = flush_digest(&self.flush_claims);
        self.flush_claims.clear();
        // The vote references the last record frame of the group.
        let fi = self.record_frame_index - 1;
        let now = acct.now();
        for link in self.links.iter_mut().filter(|l| l.live) {
            let cost = link.chan.send(now, build_vote_frame(fi, claim));
            acct.charge(Category::Communication, cost);
            self.stats.votes_sent += 1;
        }
    }

    /// The instant the acknowledgment policy is satisfied: the m-th
    /// smallest ack arrival over the live links, pushed out to the
    /// (q-1)-th arrival over vote-matching links when voting gates the
    /// release. Returns `now` if no link is live (the caller is degraded
    /// or about to be).
    fn policy_ack_arrival(&mut self, now: SimTime) -> SimTime {
        let mut live = Vec::new();
        let mut matching = Vec::new();
        for link in self.links.iter_mut().filter(|l| l.live) {
            let at = link.chan.ack_arrival(now);
            live.push(at);
            if !link.tainted {
                matching.push(at);
            }
        }
        if live.is_empty() {
            return now;
        }
        live.sort_unstable();
        let m = self.ack_policy.required(live.len());
        let mut at = live[m - 1];
        if let Some(q) = self.vote_quorum {
            // The primary's own claim is the first matching digest; the
            // remaining q-1 must arrive from untainted standbys. The
            // demotion check in `begin_output` guarantees enough exist.
            let need = (q as usize).saturating_sub(1).min(matching.len());
            if need > 0 {
                matching.sort_unstable();
                at = at.max(matching[need - 1]);
            }
        }
        at
    }

    fn vt(t: &ThreadObs<'_>) -> VtPath {
        t.vt.expect("replication hooks fire for application threads only").clone()
    }

    /// Buffers one record, charging its creation to `cat`.
    fn log(&mut self, rec: Record, cat: Category, create_cost: SimTime, acct: &mut TimeAccount) {
        self.log_deferred(rec, cat, create_cost, acct);
        self.maybe_flush(acct);
    }

    /// Buffers one record *without* a threshold flush — used when several
    /// records must reach the backup atomically (a native's result and its
    /// side-effect snapshot): a flush boundary between them would leave
    /// the backup with a logged result but a stale volatile-state
    /// snapshot, silently corrupting recovery.
    fn log_deferred(
        &mut self,
        rec: Record,
        cat: Category,
        create_cost: SimTime,
        acct: &mut TimeAccount,
    ) {
        if self.crashed {
            return;
        }
        acct.charge(cat, create_cost);
        if self.checkpoint_interval.is_some() {
            if let Record::SeState { handler, payload } = &rec {
                // Cuts transplant the latest volatile-state snapshot per
                // handler into the epoch snapshot's extension section.
                self.last_se.insert(*handler, payload.clone());
            }
        }
        // Compact bodies are encoded *now*, not at flush, so the delta
        // context sees records in log order regardless of flush boundaries.
        let frame = match self.codec {
            WireCodec::Fixed => rec.encode(),
            WireCodec::Compact => self.enc.encode_body(&rec),
        };
        self.stats.count_record(&rec, frame.len() as u64);
        self.stats.bytes_logged += frame.len() as u64;
        self.buffered_bytes += frame.len();
        self.buffer.push(frame);
    }

    fn maybe_flush(&mut self, acct: &mut TimeAccount) {
        if self.buffered_bytes >= self.flush_threshold {
            self.flush(acct);
        }
    }

    /// Sends every buffered record to the backup, charging the sender-side
    /// cost to the communication category. Fixed codec: one message per
    /// record, each but the last sealed as continuing the flush, so a
    /// receiver never releases part of it. Compact codec: one batch frame
    /// for the whole buffer.
    pub fn flush(&mut self, acct: &mut TimeAccount) {
        if self.buffer.is_empty() {
            return;
        }
        let retain = self.checkpoint_interval.is_some();
        match self.codec {
            WireCodec::Fixed => {
                // Taken for the loop and put back empty, so the next flush
                // reuses its allocation.
                let mut buffer = std::mem::take(&mut self.buffer);
                let last = buffer.len() - 1;
                for (i, frame) in buffer.drain(..).enumerate() {
                    if retain {
                        self.retain_frame(frame.len());
                    }
                    self.send_record_frame(frame, i < last, acct);
                }
                self.buffer = buffer;
            }
            WireCodec::Compact => {
                let frame = build_batch_frame(&self.buffer);
                self.buffer.clear();
                // The frame header (tag + count) is wire overhead the
                // bodies didn't account for.
                self.stats.bytes_logged += (frame.len() - self.buffered_bytes) as u64;
                if retain {
                    self.retain_frame(frame.len());
                }
                self.send_record_frame(frame, false, acct);
            }
        }
        if self.vote_quorum.is_some() {
            self.send_flush_vote(acct);
        }
        self.buffered_bytes = 0;
        self.flushes += 1;
        self.stats.flushes = self.flushes;
        let depth = self.links.first().map_or(0, |l| l.chan.depth());
        self.stats.peak_send_window = self.stats.peak_send_window.max(depth as u64);
        if let FaultPlan::AfterFlush(n) = self.fault {
            if self.flushes > n {
                self.crashed = true;
            }
        }
    }

    /// Sets the failure-detector heartbeat interval (the harness aligns it
    /// with [`ftjvm_netsim::FailureDetector`]).
    pub fn set_heartbeat_interval(&mut self, interval: SimTime) {
        self.heartbeat_interval = interval;
    }

    /// Seeds the output history of a backup promoting to primary: it
    /// continues the dead reign's exactly-once numbering instead of
    /// restarting at zero, and the outputs it already performed live, past
    /// the log's end, are this reign's first commit samples.
    pub fn seed_outputs(&mut self, next: u64, live_commits: Vec<(u64, u64)>) {
        self.next_output_id = next;
        self.stats.commit_samples = live_commits;
    }

    /// Progress tick for `n` executed units: drives the instruction-count
    /// fault plan and the failure-detection heartbeat (the paper's
    /// dedicated system thread; here a time-driven send on the log
    /// channel). Called once per block, not per unit.
    fn tick_n(&mut self, n: u64, acct: &mut TimeAccount) {
        self.units += n;
        if let FaultPlan::AfterInstructions(n) = self.fault {
            if self.units > n {
                self.crashed = true;
            }
        }
        if !self.crashed && acct.now() >= self.next_heartbeat {
            self.next_heartbeat = acct.now() + self.heartbeat_interval;
            // Heartbeats bypass the batch buffer under both codecs: they
            // are liveness signals sent the moment they are due, and the
            // self-describing frame format lets fixed heartbeat frames
            // interleave with compact batches.
            let rec = Record::Heartbeat { now_ns: acct.now().as_nanos() };
            let frame = rec.encode();
            self.stats.count_record(&rec, frame.len() as u64);
            self.broadcast(frame, acct);
        }
        if !self.crashed {
            // Reliable-transport maintenance: fire due retransmission
            // timers and process returned acks; a crashed primary stops
            // retransmitting, so unacked frames become lost suffix.
            for link in self.links.iter_mut().filter(|l| l.live) {
                let cost = link.chan.maintain(acct.now());
                if cost > SimTime::ZERO {
                    acct.charge(Category::Communication, cost);
                }
            }
        }
    }

    /// Graceful program exit: flush the buffer and, on a reliable
    /// transport, linger until every frame is acknowledged so a standby
    /// receives the complete log. Crash paths never reach this.
    pub(crate) fn finish(&mut self, acct: &mut TimeAccount) {
        self.flush(acct);
        if !self.crashed {
            let now = acct.now();
            let mut settled = now;
            for link in self.links.iter_mut().filter(|l| l.live) {
                settled = settled.max(link.chan.settle(now));
            }
            acct.wait_until(Category::Pessimistic, settled);
        }
    }

    fn stop(&mut self) -> Option<StopReason> {
        if let Some(e) = self.error.take() {
            return Some(StopReason::Error(e));
        }
        if self.crashed {
            return Some(StopReason::Crash);
        }
        None
    }

    /// True if a side-effect handler manages this native.
    pub(crate) fn se_manages(&self, name: &str) -> bool {
        self.se.handler_for(name).is_some()
    }

    /// ND-table lookup on every native invocation (§4.1): non-deterministic
    /// natives are intercepted; everything else runs untouched.
    fn pre_native(&mut self, decl: &NativeDecl, acct: &mut TimeAccount) -> NativeDirective {
        acct.charge(Category::Misc, self.cost.nd_table_lookup);
        if decl.nondeterministic {
            self.stats.nm_intercepted += 1;
        }
        NativeDirective::Execute
    }

    /// Logs the result of an intercepted native and runs the SE-handler
    /// `log` upcall. Needs the environment for handler snapshots.
    fn post_native(
        &mut self,
        env: &ftjvm_vm::SimEnv,
        t: &ThreadObs<'_>,
        decl: &NativeDecl,
        outcome: &NativeOutcome,
        output_id: Option<u64>,
        acct: &mut TimeAccount,
    ) {
        if self.crashed {
            return;
        }
        let vt = Self::vt(t);
        if decl.nondeterministic {
            let result = match &outcome.result {
                Ok(v) => match v.map(WireValue::from_value).transpose() {
                    Ok(wv) => LoggedResult::Ok(wv),
                    Err(_) => {
                        // Restriction R2: native results containing
                        // replica-local references cannot be replicated.
                        self.error = Some(VmError::Internal(format!(
                            "native `{}` returned a reference value; R2 forbids logging it",
                            decl.name
                        )));
                        return;
                    }
                },
                Err(abort) => LoggedResult::Err { code: abort.code, msg: abort.msg.clone() },
            };
            let mut wire_out_args = Vec::with_capacity(outcome.out_args.len());
            for (idx, contents) in &outcome.out_args {
                let mut wire = Vec::with_capacity(contents.len());
                for v in contents {
                    match WireValue::from_value(*v) {
                        Ok(w) => wire.push(w),
                        Err(_) => {
                            self.error = Some(VmError::Internal(format!(
                                "native `{}` stored a reference into a logged out-argument (R2)",
                                decl.name
                            )));
                            return;
                        }
                    }
                }
                wire_out_args.push((*idx, wire));
            }
            let seq = self.nd_seq.entry(vt.clone()).or_insert(0);
            *seq += 1;
            let rec = Record::NativeResult {
                t: vt.clone(),
                seq: *seq,
                sig_hash: sig_hash(&decl.name),
                result,
                out_args: wire_out_args,
            };
            self.log_deferred(rec, Category::Misc, self.cost.nd_result_record, acct);
        }
        // Side-effect handler `log` upcall — for every native a registered
        // handler manages (the handler's `register` method declared them).
        if self.se.handler_for(&decl.name).is_some() {
            if let Some((handler, payload)) =
                self.se.log(env, &decl.name, &[] as &[Value], outcome, output_id)
            {
                self.log_deferred(
                    Record::SeState { handler, payload },
                    Category::Misc,
                    self.cost.se_log,
                    acct,
                );
            }
        }
        // Single flush point: the result record and its side-effect
        // snapshot always travel in the same flush.
        self.maybe_flush(acct);
        // Fault plan: crash right after performing the n-th output.
        if decl.output {
            if let (FaultPlan::AfterOutput(n), Some(id)) = (self.fault, output_id) {
                if id >= n {
                    self.crashed = true;
                }
            }
        }
    }

    /// Output commit (§3.4): log the commit record, flush everything, and
    /// wait pessimistically for the backup's acknowledgment.
    fn begin_output(&mut self, t: &ThreadObs<'_>, acct: &mut TimeAccount) -> u64 {
        let vt = Self::vt(t);
        let id = self.next_output_id;
        self.next_output_id += 1;
        let seq = self.out_seq.entry(vt.clone()).or_insert(0);
        *seq += 1;
        let rec = Record::OutputCommit { t: vt, seq: *seq, output_id: id };
        self.log(rec, Category::Misc, self.cost.nd_result_record, acct);
        self.stats.output_commits += 1;
        self.flush(acct);
        if let Some(q) = self.vote_quorum {
            // BFT-lite gate: the output may only release once q digests
            // match the claim. The primary's own claim counts as one; a
            // link this replica ever flipped can never vote with it. When
            // enough links are live that q is reachable yet tainted copies
            // make it unattainable, the primary *is* the outlier — demote
            // instead of releasing a corrupted output (the group driver
            // promotes the lowest-rank survivor). An under-formed group
            // (fewer than q-1 live links, e.g. mid re-homing after a
            // failover) releases uncovered outputs like degraded mode does:
            // the quorum guarantee applies to formed groups.
            let live = self.live_links() as u32;
            let matching = self.links.iter().filter(|l| l.live && !l.tainted).count() as u32;
            if matching + 1 < q && live + 1 >= q {
                self.stats.byzantine_demotions += 1;
                self.crashed = true;
                return id;
            }
        }
        if self.degraded {
            // The backup is dead: there is nothing to wait for. The commit
            // record still went out (a replacement starts from a later
            // cut, which covers it); the uncovered output is counted as
            // the fault-tolerance gap this run accumulated.
            self.stats.degraded_outputs += 1;
            self.stats.commit_samples.push((acct.now().as_nanos(), 0));
        } else {
            let ack_at = self.policy_ack_arrival(acct.now());
            let wait = ack_at.saturating_sub(acct.now());
            acct.wait_until(Category::Pessimistic, ack_at);
            self.stats.commit_samples.push((acct.now().as_nanos(), wait.as_nanos()));
        }
        // Fault plan: crash after the commit but before the output itself —
        // the paper's "uncertain output" window.
        if let FaultPlan::BeforeOutput(n) = self.fault {
            if id >= n {
                self.crashed = true;
            }
        }
        id
    }

    // --- Epoch checkpointing (bounded logs + re-integration) -------------

    /// Enables epoch checkpointing: cut after every `n` flushes. Call
    /// before execution starts; `None` (the default) leaves every
    /// checkpointing path dormant.
    pub fn set_checkpoint_interval(&mut self, interval: Option<u64>) {
        self.checkpoint_interval = interval;
    }

    /// True when enough flushes have accumulated that the driver should
    /// cut an epoch at the next quiescent point.
    pub fn wants_epoch_cut(&self) -> bool {
        match self.checkpoint_interval {
            Some(n) => !self.crashed && self.flushes - self.flushes_at_cut >= n,
            None => false,
        }
    }

    /// Epochs cut so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// First half of an epoch cut: flush the buffer so every logged record
    /// is on the wire (and in the retained suffix), then package the
    /// replication-layer state the snapshot must carry — the compact
    /// encoder's delta context, the per-thread ND/output sequence maps,
    /// the global output/epoch counters, and the latest side-effect
    /// payloads. The caller feeds the result to `Vm::snapshot` (or, when
    /// nothing ships the blob, `Vm::snapshot_len`) and hands its length
    /// back to [`PrimaryCore::commit_epoch`].
    pub fn prepare_epoch_cut(&mut self, acct: &mut TimeAccount) -> Vec<(u8, Bytes)> {
        self.flush(acct);
        let mut counters = WireWriter::with_capacity(24);
        counters.put_uvarint(self.next_output_id);
        counters.put_uvarint(self.epoch + 1);
        let mut se = WireWriter::with_capacity(32);
        let mut latest: Vec<(u8, &Bytes)> = self.last_se.iter().map(|(&h, p)| (h, p)).collect();
        latest.sort_unstable_by_key(|(h, _)| *h);
        se.put_uvarint(latest.len() as u64);
        for (h, p) in latest {
            se.put_u8(h);
            se.put_vbytes(p);
        }
        vec![
            (EXT_CODEC_CTX, self.enc.export_ctx()),
            (EXT_ND_SEQ, encode_vt_map(&self.nd_seq)),
            (EXT_OUT_SEQ, encode_vt_map(&self.out_seq)),
            (EXT_COUNTERS, counters.finish()),
            (EXT_SE_LATEST, se.finish()),
        ]
    }

    /// Second half of an epoch cut: send the epoch mark, truncate the
    /// retained suffix (everything before the cut is now subsumed by the
    /// snapshot), and charge the serialization cost of a `snapshot_len`
    /// byte snapshot. Returns the new epoch number.
    pub fn commit_epoch(&mut self, snapshot_len: usize, acct: &mut TimeAccount) -> u64 {
        self.epoch += 1;
        let frame = build_epoch_frame(self.epoch, self.retained_frames);
        self.broadcast(frame, acct);
        // Serializing the snapshot is primary CPU work, charged per byte
        // at the wire's marginal rate (it is a memory copy plus CRC, the
        // same order of work as packetizing).
        let per_byte = self.cost.net.per_byte.as_nanos();
        acct.charge(
            Category::Misc,
            SimTime::from_nanos(per_byte.saturating_mul(snapshot_len as u64)),
        );
        self.retained_frames = 0;
        self.retained_bytes = 0;
        self.flushes_at_cut = self.flushes;
        self.stats.epochs_cut += 1;
        self.stats.epoch_cut_flushes.push(self.flushes);
        self.stats.snapshot_bytes = snapshot_len as u64;
        self.epoch
    }

    /// Relays the backup's epoch acknowledgment (driver-carried: the
    /// backup counts absorbed epoch marks, the driver copies the count
    /// here).
    pub fn record_epoch_ack(&mut self, acked: u64) {
        self.stats.epochs_acked = self.stats.epochs_acked.max(acked);
    }

    /// Whether the core is running without a live backup.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Enters degraded mode: the failure detector declared the backup
    /// dead, so output commits stop waiting for acknowledgments.
    pub fn enter_degraded(&mut self) {
        self.degraded = true;
    }

    /// Exits degraded mode once a replacement backup has caught up.
    pub fn exit_degraded(&mut self) {
        self.degraded = false;
    }

    /// Sends one pre-built frame (a snapshot chunk during state transfer)
    /// on fan-out link `idx` only, charging the communication cost: state
    /// transfer re-integrates a single standby, and the other links must
    /// not see its snapshot chunks.
    pub fn send_on(&mut self, idx: usize, payload: Bytes, acct: &mut TimeAccount) {
        let now = acct.now();
        let cost = self.link_mut(idx).send(now, payload);
        acct.charge(Category::Communication, cost);
    }

    fn retain_frame(&mut self, len: usize) {
        self.retained_frames += 1;
        self.retained_bytes += len as u64;
        self.stats.peak_suffix_frames = self.stats.peak_suffix_frames.max(self.retained_frames);
        self.stats.peak_suffix_bytes = self.stats.peak_suffix_bytes.max(self.retained_bytes);
    }
}

// --- Snapshot extension sections (replication-layer state at a cut) -------

/// Extension tag: compact-codec encoder context ([`RecordEncoder::export_ctx`]).
pub const EXT_CODEC_CTX: u8 = 1;
/// Extension tag: per-thread ND sequence map.
pub const EXT_ND_SEQ: u8 = 2;
/// Extension tag: per-thread output-commit sequence map.
pub const EXT_OUT_SEQ: u8 = 3;
/// Extension tag: `uvarint(next_output_id) · uvarint(epoch)`.
pub const EXT_COUNTERS: u8 = 4;
/// Extension tag: latest side-effect payload per handler.
pub const EXT_SE_LATEST: u8 = 5;

/// Serializes a per-thread counter map deterministically (sorted by
/// ordinal chain).
pub(crate) fn encode_vt_map(map: &HashMap<VtPath, u64>) -> Bytes {
    let mut entries: Vec<(&VtPath, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
    entries.sort_unstable_by(|a, b| a.0.ordinals().cmp(b.0.ordinals()));
    let mut w = WireWriter::with_capacity(8 + 8 * entries.len());
    w.put_uvarint(entries.len() as u64);
    for (vt, v) in entries {
        let ords = vt.ordinals();
        w.put_uvarint(ords.len() as u64);
        for &o in ords {
            w.put_uvarint(o as u64);
        }
        w.put_uvarint(v);
    }
    w.finish()
}

/// Mirror of [`encode_vt_map`].
pub(crate) fn decode_vt_map(blob: &Bytes) -> Result<HashMap<VtPath, u64>, WireError> {
    let mut r = WireReader::new(blob.clone());
    let n = r.get_uvarint()? as usize;
    if n > r.remaining() {
        return Err(WireError::new("vt map count"));
    }
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        let n_ords = r.get_uvarint()? as usize;
        if n_ords == 0 || n_ords > r.remaining() {
            return Err(WireError::new("vt map ordinal chain"));
        }
        let mut ords = Vec::with_capacity(n_ords);
        for _ in 0..n_ords {
            let o = r.get_uvarint()?;
            if o > u32::MAX as u64 {
                return Err(WireError::new("vt map ordinal"));
            }
            ords.push(o as u32);
        }
        let v = r.get_uvarint()?;
        map.insert(VtPath::from_ordinals(ords), v);
    }
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after vt map"));
    }
    Ok(map)
}

/// Per-thread branch counters of `vm`'s threads: the seed a coordinator
/// taking over a running VM starts its progress-cost accounting from.
pub(crate) fn branch_counts(vm: &VmCore) -> HashMap<u32, u64> {
    vm.threads.iter().map(|t| (t.idx.0, t.br_cnt)).collect()
}

/// The primary coordinator (§4.2): [`PrimaryCore`] plus the record state
/// of the technique it logs for. Every hook the techniques share is
/// written once; the technique decides only which records a lock
/// acquisition or a context switch produces.
#[derive(Debug)]
pub struct Primary {
    /// Shared primary machinery.
    pub core: PrimaryCore,
    state: PrimaryState,
}

#[derive(Debug)]
enum PrimaryState {
    /// Replicated lock synchronization: an id map on a lock's first
    /// acquisition, a lock-acquisition record on every acquisition.
    Lock {
        /// Next virtual lock id to assign.
        next_l_id: u64,
    },
    /// Interval-compressed lock synchronization — the DejaVu-style
    /// optimization the paper's related work points at ("there would only
    /// be 56 intervals instead of 700258 lock acquisitions").
    /// Globally-consecutive acquisitions by one thread collapse into a
    /// single [`Record::LockInterval`]; virtual lock ids and id maps are
    /// unnecessary because the backup enforces a *total* order over all
    /// acquisitions rather than a per-lock order.
    Interval {
        /// The interval being extended: (thread, `t_asn` start, count).
        open: Option<(VtPath, u64, u64)>,
    },
    /// Replicated thread scheduling: per-instruction progress bookkeeping
    /// and a schedule record whenever the scheduler switches between two
    /// application threads.
    Ts {
        /// The last application thread that yielded (its progress
        /// snapshot), pending the next application dispatch.
        pending_from: Option<ThreadSnap>,
        /// Last observed `br_cnt` per thread, to charge `br_cnt`
        /// maintenance once per control-flow change.
        last_br: HashMap<u32, u64>,
    },
}

impl Primary {
    /// Creates the primary coordinator of `technique` for a fresh run.
    pub fn new(core: PrimaryCore, technique: Technique) -> Self {
        let state = match technique {
            Technique::Lock => PrimaryState::Lock { next_l_id: 0 },
            Technique::Interval => PrimaryState::Interval { open: None },
            Technique::ThreadSched => {
                PrimaryState::Ts { pending_from: None, last_br: HashMap::new() }
            }
        };
        Primary { core, state }
    }

    /// Creates the coordinator for a backup promoting to primary over its
    /// replayed VM: fresh virtual lock ids start past every id the history
    /// assigned, and per-thread branch counters continue rather than
    /// restart.
    pub(crate) fn promoted(core: PrimaryCore, technique: Technique, vm: &VmCore) -> Self {
        let mut p = Primary::new(core, technique);
        match &mut p.state {
            PrimaryState::Lock { next_l_id } => {
                *next_l_id = vm.monitors.max_lock_id().map_or(0, |m| m + 1);
            }
            PrimaryState::Interval { .. } => {}
            PrimaryState::Ts { last_br, .. } => *last_br = branch_counts(vm),
        }
        p
    }

    /// First half of an epoch cut (see [`PrimaryCore::prepare_epoch_cut`]),
    /// or `None` when the technique is mid-record: under thread scheduling
    /// a half-captured schedule record (a pending yield snapshot) would be
    /// lost by the snapshot/suffix split. The interval technique closes
    /// its open interval first so the flushed prefix is self-contained.
    pub(crate) fn prepare_cut(&mut self, acct: &mut TimeAccount) -> Option<Vec<(u8, Bytes)>> {
        if let PrimaryState::Ts { pending_from: Some(_), .. } = self.state {
            return None;
        }
        self.close_open(acct);
        Some(self.core.prepare_epoch_cut(acct))
    }

    /// Logs the open acquisition interval, if any (the interval technique
    /// only): output commit, intercepted natives, cuts, and program exit
    /// are synchronization points it must reach the backup before.
    fn close_open(&mut self, acct: &mut TimeAccount) {
        if let PrimaryState::Interval { open } = &mut self.state {
            if let Some(interval) = open.take() {
                log_interval(&mut self.core, interval, acct);
            }
        }
    }
}

/// Logs one closed acquisition interval.
fn log_interval(
    core: &mut PrimaryCore,
    (t, t_asn_start, count): (VtPath, u64, u64),
    acct: &mut TimeAccount,
) {
    let cost = core.cost.lock_record;
    core.log(Record::LockInterval { t, t_asn_start, count }, Category::LockAcquire, cost, acct);
}

impl Coordinator for Primary {
    fn mode(&self) -> &'static str {
        match self.state {
            PrimaryState::Lock { .. } => "lock-sync-primary",
            PrimaryState::Interval { .. } => "lock-interval-primary",
            PrimaryState::Ts { .. } => "ts-primary",
        }
    }

    fn stop(&mut self) -> Option<StopReason> {
        self.core.stop()
    }

    fn check_preempt(&mut self, t: &ThreadObs<'_>, acct: &mut TimeAccount) -> bool {
        let PrimaryState::Ts { last_br, .. } = &mut self.state else { return false };
        // The extra interpreter-loop work that tracks progress (the
        // paper's dominant "Misc" overhead). With block-granular fusion
        // the counters materialize once per consult, not once per unit: a
        // PC update at each block boundary, plus one `br_cnt` store when
        // any control flow happened since the last consult.
        let mut cost = self.core.cost.ts_pc_track;
        let last = last_br.entry(t.t.0).or_insert(0);
        if t.br_cnt > *last {
            *last = t.br_cnt;
            cost += self.core.cost.ts_br_track;
        }
        acct.charge(Category::Misc, cost);
        false
    }

    fn note_units(&mut self, n: u64, acct: &mut TimeAccount) {
        self.core.tick_n(n, acct);
    }

    fn on_switch(
        &mut self,
        from: Option<&ThreadSnap>,
        _reason: SwitchReason,
        to: &ThreadSnap,
        acct: &mut TimeAccount,
    ) {
        let PrimaryState::Ts { pending_from, .. } = &mut self.state else { return };
        if let Some(f) = from {
            if f.vt.is_some() {
                *pending_from = Some(f.clone());
            }
        }
        if to.vt.is_none() {
            return; // switches to system threads are not replicated
        }
        if let Some(prev) = pending_from.take() {
            if prev.t != to.t {
                let rec = Record::Sched {
                    t: prev.vt.clone().expect("pending_from is an app thread"),
                    br_cnt: prev.br_cnt,
                    method: prev.method.map(|m| m.0).unwrap_or(u32::MAX),
                    pc_off: prev.pc,
                    mon_cnt: prev.mon_cnt,
                    l_asn: prev.blocked_lasn,
                    in_native: prev.in_native,
                    next: to.vt.clone().expect("checked vt above"),
                };
                let cost = self.core.cost.sched_record;
                self.core.log(rec, Category::Resched, cost, acct);
            }
        }
    }

    fn post_monitor_acquire(
        &mut self,
        t: &ThreadObs<'_>,
        _obj: ObjRef,
        l_id: Option<u64>,
        l_asn: u64,
        acct: &mut TimeAccount,
    ) -> Option<u64> {
        let assigned = match &mut self.state {
            PrimaryState::Lock { next_l_id } => {
                let vt = PrimaryCore::vt(t);
                let (l_id, assigned) = match l_id {
                    Some(id) => (id, None),
                    None => {
                        // First acquisition anywhere: assign the virtual
                        // lock id and log the id map (§4.2).
                        let id = *next_l_id;
                        *next_l_id += 1;
                        let id_map_cost = self.core.cost.id_map_record;
                        self.core.log(
                            Record::IdMap { l_id: id, t: vt.clone(), t_asn: t.t_asn },
                            Category::LockAcquire,
                            id_map_cost,
                            acct,
                        );
                        (id, Some(id))
                    }
                };
                let lock_cost = self.core.cost.lock_record;
                self.core.log(
                    Record::LockAcq { t: vt, t_asn: t.t_asn, l_id, l_asn },
                    Category::LockAcquire,
                    lock_cost,
                    acct,
                );
                assigned
            }
            PrimaryState::Interval { open } => {
                let vt = PrimaryCore::vt(t);
                acct.charge(Category::LockAcquire, self.core.cost.interval_update);
                match open {
                    Some((open_t, _, count)) if *open_t == vt => *count += 1,
                    _ => {
                        if let Some(closed) = open.replace((vt, t.t_asn, 1)) {
                            log_interval(&mut self.core, closed, acct);
                        }
                    }
                }
                None
            }
            PrimaryState::Ts { .. } => return None,
        };
        self.core.stats.locks_acquired += 1;
        self.core.stats.largest_lasn = self.core.stats.largest_lasn.max(l_asn);
        assigned
    }

    fn pre_native(
        &mut self,
        _t: &ThreadObs<'_>,
        decl: &NativeDecl,
        _args: &[Value],
        acct: &mut TimeAccount,
    ) -> NativeDirective {
        self.core.pre_native(decl, acct)
    }

    fn post_native(
        &mut self,
        t: &ThreadObs<'_>,
        decl: &NativeDecl,
        outcome: &NativeOutcome,
        output_id: Option<u64>,
        env: &ftjvm_vm::SimEnv,
        acct: &mut TimeAccount,
    ) {
        // An intercepted native's result record must be ordered after the
        // interval that covers the acquisitions preceding it.
        if matches!(self.state, PrimaryState::Interval { open: Some(_) })
            && (decl.nondeterministic || self.core.se_manages(&decl.name))
        {
            self.close_open(acct);
        }
        self.core.post_native(env, t, decl, outcome, output_id, acct);
    }

    fn begin_output(
        &mut self,
        t: &ThreadObs<'_>,
        _decl: &NativeDecl,
        acct: &mut TimeAccount,
    ) -> u64 {
        self.close_open(acct);
        self.core.begin_output(t, acct)
    }

    fn on_exit(&mut self, acct: &mut TimeAccount) {
        self.close_open(acct);
        self.core.finish(acct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::seal_frame;
    use ftjvm_netsim::NetParams;

    fn core_with(fault: FaultPlan) -> PrimaryCore {
        let channel = LogChannel::Perfect(SimChannel::new(NetParams::default()));
        PrimaryCore::new(vec![channel], CostModel::default(), fault, SeRegistry::with_builtins())
    }

    fn lock_rec(n: u64) -> Record {
        Record::LockAcq { t: VtPath::root(), t_asn: n, l_id: 0, l_asn: n }
    }

    #[test]
    fn records_buffer_until_threshold_then_flush_together() {
        let mut core = core_with(FaultPlan::None);
        core.flush_threshold = 200; // a handful of 40-byte records
        let mut acct = TimeAccount::new();
        for n in 1..=4 {
            core.log(lock_rec(n), Category::LockAcquire, SimTime::from_nanos(10), &mut acct);
        }
        assert_eq!(core.stats.lock_acq_records, 4);
        // Below threshold: nothing sent yet.
        let sent_before = {
            let (links, _) = core.into_parts();
            links[0].stats().messages_sent
        };
        assert!(sent_before <= 4, "some records may have flushed at the boundary");
    }

    #[test]
    fn zero_threshold_flushes_every_record() {
        let mut core = core_with(FaultPlan::None);
        core.flush_threshold = 0;
        let mut acct = TimeAccount::new();
        for n in 1..=5 {
            core.log(lock_rec(n), Category::LockAcquire, SimTime::from_nanos(10), &mut acct);
        }
        assert_eq!(core.stats.flushes, 5);
        let (links, stats) = core.into_parts();
        assert_eq!(links[0].stats().messages_sent, 5);
        assert_eq!(stats.lock_acq_records, 5);
    }

    #[test]
    fn crashed_core_stops_logging() {
        let mut core = core_with(FaultPlan::AfterInstructions(2));
        core.flush_threshold = 0;
        let mut acct = TimeAccount::new();
        core.tick_n(1, &mut acct);
        core.tick_n(1, &mut acct);
        core.tick_n(1, &mut acct); // > 2 -> crash
        assert!(matches!(core.stop(), Some(StopReason::Crash)));
        core.log(lock_rec(1), Category::LockAcquire, SimTime::from_nanos(10), &mut acct);
        assert_eq!(core.stats.lock_acq_records, 0, "post-crash records are dropped");
    }

    #[test]
    fn heartbeats_ride_the_channel_on_schedule() {
        let mut core = core_with(FaultPlan::None);
        core.set_heartbeat_interval(SimTime::from_millis(10));
        let mut acct = TimeAccount::new();
        core.tick_n(1, &mut acct); // t=0: first heartbeat
        acct.charge(Category::Base, SimTime::from_millis(25));
        core.tick_n(1, &mut acct); // t=25ms: second
        core.tick_n(1, &mut acct); // still within interval: none
        assert_eq!(core.stats.heartbeats, 2);
    }

    #[test]
    fn output_commit_flushes_and_waits_pessimistically() {
        let mut core = core_with(FaultPlan::None);
        core.flush_threshold = usize::MAX; // only commits flush
        let mut acct = TimeAccount::new();
        core.log(lock_rec(1), Category::LockAcquire, SimTime::from_nanos(10), &mut acct);
        let obs = ThreadObs {
            t: ftjvm_vm::ThreadIdx(0),
            vt: Some(&VtPath::root()),
            br_cnt: 0,
            mon_cnt: 0,
            t_asn: 0,
            method: None,
            pc: 0,
            in_native: false,
        };
        let before = acct.get(Category::Pessimistic);
        let id = core.begin_output(&obs, &mut acct);
        assert_eq!(id, 0);
        assert!(acct.get(Category::Pessimistic) > before, "ack wait must be charged");
        assert!(core.stats.flushes >= 1);
        assert_eq!(core.stats.output_commit_records, 1);
        let id2 = core.begin_output(&obs, &mut acct);
        assert_eq!(id2, 1, "output ids are the global commit sequence");
    }

    #[test]
    fn before_output_fault_fires_in_the_uncertain_window() {
        let mut core = core_with(FaultPlan::BeforeOutput(0));
        let mut acct = TimeAccount::new();
        let vt = VtPath::root();
        let obs = ThreadObs {
            t: ftjvm_vm::ThreadIdx(0),
            vt: Some(&vt),
            br_cnt: 0,
            mon_cnt: 0,
            t_asn: 0,
            method: None,
            pc: 0,
            in_native: false,
        };
        let _ = core.begin_output(&obs, &mut acct);
        // Commit happened (record sent) but the crash flag is up before
        // the output body can run.
        assert!(matches!(core.stop(), Some(StopReason::Crash)));
        assert_eq!(core.stats.output_commit_records, 1);
    }

    // -- SendWindow against a sequence-keyed map model -----------------------

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One unacked frame in the model: its payload and timer state.
    #[derive(Debug)]
    struct ModelFrame {
        payload: Vec<u8>,
        deadline: SimTime,
        rto: SimTime,
        last_sent: SimTime,
    }

    /// The sender's rules written directly over a `BTreeMap` keyed by
    /// sequence number: a cumulative ACK drops every key below `next`, a
    /// NACK resends the frame at `seq` if present and not resent within
    /// `min_spacing`, and only the lowest key owns a timeout.
    #[derive(Debug)]
    struct ModelWindow {
        next_seq: u64,
        frames: BTreeMap<u64, ModelFrame>,
        rto_base: SimTime,
        retransmits: u64,
        last_ack_at: SimTime,
    }

    impl ModelWindow {
        fn rto_cap(&self) -> SimTime {
            SimTime::from_nanos(self.rto_base.as_nanos() * 32)
        }

        fn min_spacing(&self) -> SimTime {
            SimTime::from_nanos(self.rto_base.as_nanos() / 4)
        }

        fn track(&mut self, now: SimTime, payload: &[u8]) {
            let f = ModelFrame {
                payload: payload.to_vec(),
                deadline: now + self.rto_base,
                rto: self.rto_base,
                last_sent: now,
            };
            self.frames.insert(self.next_seq, f);
            self.next_seq += 1;
        }

        fn ack(&mut self, at: SimTime, next: u64) {
            self.frames.retain(|&seq, _| seq >= next);
            self.last_ack_at = self.last_ack_at.max(at);
        }

        fn nack(&mut self, at: SimTime, seq: u64) -> Vec<Bytes> {
            let spacing = self.min_spacing();
            let Some(f) = self.frames.get_mut(&seq) else { return Vec::new() };
            if at < f.last_sent + spacing {
                return Vec::new();
            }
            f.last_sent = at;
            f.deadline = at + f.rto;
            self.retransmits += 1;
            vec![seal_frame(seq, &f.payload)]
        }

        fn expire(&mut self, now: SimTime) -> Vec<Bytes> {
            let cap = self.rto_cap();
            let Some((&seq, f)) = self.frames.iter_mut().next() else { return Vec::new() };
            if f.deadline > now {
                return Vec::new();
            }
            f.rto = SimTime::from_nanos(f.rto.as_nanos() * 2).min(cap);
            f.last_sent = now;
            f.deadline = now + f.rto;
            self.retransmits += 1;
            vec![seal_frame(seq, &f.payload)]
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.frames.values().next().map(|f| f.deadline)
        }
    }

    /// Which sender event one step applies.
    #[derive(Debug, Clone, Copy)]
    enum WinOp {
        Track,
        Ack,
        Nack,
        Expire,
    }

    /// One step of the sender's event loop: `(op, dt, late, arg)`, times
    /// in 5 us ticks so that NACKs land exactly on the 25 us spacing
    /// boundary. `dt` advances the clock. Control messages are stamped up
    /// to `late` before the current instant, as they carry their own
    /// arrival time. `arg` is the payload length for `Track`, and for
    /// `Ack`/`Nack` counts back from three past the next sequence number,
    /// so stale ACKs, ACKs beyond the last tracked frame, and NACKs for
    /// acked or never-sent frames all occur.
    fn win_step() -> impl Strategy<Value = (WinOp, u64, u64, u64)> {
        let op = prop_oneof![
            Just(WinOp::Track),
            Just(WinOp::Ack),
            Just(WinOp::Nack),
            Just(WinOp::Expire)
        ];
        // Steps range from sub-spacing NACK bursts to several capped RTOs
        // (base 100 us, cap 3.2 ms).
        let dt = prop_oneof![0u64..8, 0u64..1_600];
        (op, dt, prop_oneof![0u64..6, 0u64..60], 0u64..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `SendWindow` makes exactly the model's decisions: the same
        /// frames resent in the same order, the same retransmit count,
        /// window depth, head timer and last-ACK instant after every step.
        #[test]
        fn send_window_matches_map_model(steps in prop::collection::vec(win_step(), 0..160)) {
            let rto_base = SimTime::from_micros(100);
            let mut win = SendWindow::new(rto_base);
            let mut model = ModelWindow {
                next_seq: 0,
                frames: BTreeMap::new(),
                rto_base,
                retransmits: 0,
                last_ack_at: SimTime::ZERO,
            };
            let mut now = SimTime::ZERO;
            for (i, &(op, dt, late, arg)) in steps.iter().enumerate() {
                now += SimTime::from_micros(5 * dt);
                let at = now.saturating_sub(SimTime::from_micros(5 * late));
                let seq = (model.next_seq + 3).saturating_sub(arg);
                let mut resend = Vec::new();
                let (got, want) = match op {
                    WinOp::Track => {
                        let payload: Vec<u8> = (0..arg).map(|b| (b as usize + i) as u8).collect();
                        let want = vec![seal_frame(model.next_seq, &payload)];
                        model.track(now, &payload);
                        (vec![win.track(now, &payload, false)], want)
                    }
                    WinOp::Ack => {
                        win.on_control(at, Control::Ack { next: seq }, &mut resend);
                        model.ack(at, seq);
                        (resend, Vec::new())
                    }
                    WinOp::Nack => {
                        win.on_control(at, Control::Nack { seq }, &mut resend);
                        (resend, model.nack(at, seq))
                    }
                    WinOp::Expire => {
                        win.expired(now, &mut resend);
                        (resend, model.expire(now))
                    }
                };
                prop_assert_eq!(got, want, "step {}: sent or resent frames", i);
                prop_assert_eq!(win.retransmits, model.retransmits, "step {}: retransmits", i);
                prop_assert_eq!(win.outstanding(), model.frames.len(), "step {}: outstanding", i);
                prop_assert_eq!(win.next_deadline(), model.next_deadline(), "step {}: deadline", i);
                prop_assert_eq!(win.last_ack_at, model.last_ack_at, "step {}: last ack", i);
            }
        }
    }
}
