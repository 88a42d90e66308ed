//! Shared network capacity for fleet simulations.
//!
//! A single replicated pair owns its [`crate::SimChannel`] outright — the
//! paper's testbed is a dedicated link. A *fleet* of pairs shares rack and
//! core switches: when hundreds of primaries flush at once, frames queue
//! behind each other on the shared trunk. [`SharedBandwidth`] models that
//! trunk as one serializer on the fleet's global timeline, kept as a
//! [`Calendar`] of busy runs: a frame admitted at global instant `t`
//! transmits in the first idle gap at or after `t` and occupies the trunk
//! for `bytes × per_byte`; the admission delay (queue wait +
//! serialization) is added on top of the channel's own local-link costs.
//!
//! The calendar — rather than a scalar next-free pointer — makes the
//! model *admission-order independent*: slots multiplexed by a scheduler
//! admit frames slightly out of global-time order (one slot's step can
//! jump past another's), and a frame sent at an early instant must not
//! queue behind a reservation made for the far future. The delay a frame
//! sees depends only on the set of other frames' (instant, size) pairs,
//! not on the order the scheduler happened to discover them in.
//!
//! One `SharedBandwidth` serves two uses, with one placement rule:
//!
//! * **Coupled trunk.** Every admission is placed against, and inserted
//!   into, the trunk's own calendar, so each frame sees all earlier ones.
//!   The master trunk of a windowed scheduler is one of these that never
//!   admits: finished windows are folded in with
//!   [`SharedBandwidth::merge_window`].
//! * **Windowed port** (after [`SharedBandwidth::sync_window`]). The port
//!   shares the master's calendar as it stood at the last barrier — the
//!   *frozen base*, a reference to the master's buffer, never a copy —
//!   and keeps a private *overlay* of the runs it placed itself since
//!   then. An admission takes the first gap in base ∪ overlay and goes
//!   into the overlay and the window log; nothing another port does
//!   inside the window is visible. [`SharedBandwidth::take_window`] hands
//!   the log to the barrier, which merges it into the master.
//!
//! Two ports of one window can therefore reserve the same trunk instant.
//! The merge is an overlap-coalescing union, and what it absorbed twice
//! is counted in [`SharedStats::oversubscribed`].
//!
//! Channels attach a handle via [`crate::SimChannel::attach_shared`] with
//! the slot's local→global clock offset. Unattached channels are
//! byte-identical to a build without this module.

use crate::clock::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Counters describing everything the shared trunk carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Frames admitted.
    pub frames: u64,
    /// Payload bytes serialized onto the trunk.
    pub bytes: u64,
    /// Total time frames spent queued behind other pairs' traffic.
    pub queue_total: SimTime,
    /// Largest single queue wait.
    pub queue_peak: SimTime,
    /// Time the trunk spent transmitting (busy time; divide by the global
    /// makespan for utilization).
    pub busy: SimTime,
    /// Trunk time reserved more than once: ports of one window place
    /// against the same frozen calendar, so their reservations can
    /// overlap, and the merge absorbs the overlap. The sum over merged
    /// windows of the time placed minus the time the calendar grew by;
    /// zero on a coupled trunk. `busy` counts this time once per frame.
    pub oversubscribed: SimTime,
}

impl SharedStats {
    /// Folds another delta in: sums and a max, so the order is irrelevant.
    fn absorb(&mut self, other: &SharedStats) {
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.queue_total += other.queue_total;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.busy += other.busy;
        self.oversubscribed += other.oversubscribed;
    }
}

/// One scheduler window's trunk activity on one port: the busy intervals
/// the port placed plus the statistics delta it accumulated. Plain data,
/// so it can cross worker-thread boundaries to the merge leader of a
/// windowed parallel scheduler.
#[derive(Debug, Clone, Default)]
pub struct TrunkWindow {
    /// Raw placed intervals `(start, end)` in ns, in admission order.
    pub intervals: Vec<(u64, u64)>,
    /// The statistics delta the port accumulated over the window.
    pub stats: SharedStats,
}

impl TrunkWindow {
    /// True when the window carried no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty() && self.stats.frames == 0
    }
}

/// A trunk's busy time: `(start, end)` runs in ns, sorted, disjoint and
/// coalesced (no run touches the next), in an immutable buffer that
/// clones share. `clone()` is a reference-count bump, which is what lets
/// every port of a window read the master's calendar without copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Calendar(Arc<Vec<(u64, u64)>>);

impl Calendar {
    /// The busy runs, earliest first.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.0
    }

    /// Unions `sorted` — intervals in start order, overlapping or not —
    /// into the runs with one forward pass, and returns the time the busy
    /// set grew by. Clones taken before keep the old buffer.
    fn union(&mut self, sorted: &[(u64, u64)]) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let old = self.runs();
        let mut runs = Vec::with_capacity(old.len() + sorted.len());
        let (mut i, mut grown) = (0, 0);
        for &(mut lo, mut hi) in sorted {
            // Old runs that end before the interval starts go over as
            // they are.
            let before = i + old[i..].partition_point(|&(_, end)| end < lo);
            runs.extend_from_slice(&old[i..before]);
            i = before;
            // The interval absorbs the run just written if that reaches it
            // (new intervals may overlap each other) and every old run
            // that starts at or before its end.
            let mut absorbed = 0;
            if let Some(&(plo, phi)) = runs.last().filter(|prev| prev.1 >= lo) {
                runs.pop();
                absorbed += phi - plo;
                (lo, hi) = (plo, hi.max(phi));
            }
            while let Some(&(olo, ohi)) = old.get(i).filter(|next| next.0 <= hi) {
                i += 1;
                absorbed += ohi - olo;
                (lo, hi) = (lo.min(olo), hi.max(ohi));
            }
            runs.push((lo, hi));
            grown += (hi - lo) - absorbed;
        }
        runs.extend_from_slice(&old[i..]);
        self.0 = Arc::new(runs);
        grown
    }
}

/// One transmission capacity shared by every attached channel, on the
/// global fleet timeline.
#[derive(Debug)]
pub struct SharedBandwidth {
    /// Serialization cost per payload byte on the shared trunk.
    per_byte: SimTime,
    /// The trunk's own busy runs; on a windowed port, the master's as
    /// they stood at the last [`SharedBandwidth::sync_window`].
    calendar: Calendar,
    /// A windowed port's own placements since the sync, kept like a
    /// calendar's runs and disjoint from them. Never written on a coupled
    /// trunk.
    overlay: Vec<(u64, u64)>,
    stats: SharedStats,
    /// When windowed (a parallel scheduler port), the raw intervals placed
    /// since the last [`SharedBandwidth::sync_window`]. `None` keeps the
    /// classic always-coupled single-trunk behavior.
    window_log: Option<Vec<(u64, u64)>>,
}

impl SharedBandwidth {
    /// Creates an idle trunk with the given per-byte serialization cost.
    pub fn new(per_byte: SimTime) -> Self {
        SharedBandwidth {
            per_byte,
            calendar: Calendar::default(),
            overlay: Vec::new(),
            stats: SharedStats::default(),
            window_log: None,
        }
    }

    /// Creates a trunk handle shareable between channels.
    pub fn shared(per_byte: SimTime) -> SharedLink {
        Rc::new(RefCell::new(SharedBandwidth::new(per_byte)))
    }

    /// Admits one frame at global instant `now`, returning the extra
    /// delay (queue wait plus trunk serialization) the frame suffers on
    /// top of its dedicated-link costs. The frame transmits in the first
    /// gap of `bytes × per_byte` at or after `now`.
    pub fn admit(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let tx = self.per_byte.as_nanos() * bytes as u64;
        let mut start = now.as_nanos();
        let (base, own) = (self.calendar.runs(), &self.overlay[..]);
        // Runs that end at or before `start` cannot move the frame. From
        // the first one that can, in each list, walk the two lists as one
        // sequence in start order: a run that covers `start` or leaves no
        // tx-sized gap before it pushes `start` to its end.
        let mut i = base.partition_point(|&(_, end)| end <= start);
        let mut j = own.partition_point(|&(_, end)| end <= start);
        loop {
            let in_base = match (base.get(i), own.get(j)) {
                (Some(b), Some(o)) => b.0 <= o.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (lo, hi) = if in_base { base[i] } else { own[j] };
            if lo > start && lo - start >= tx {
                break;
            }
            start = hi;
            if in_base {
                i += 1;
            } else {
                j += 1;
            }
        }
        // The cursors stopped on the first run past the frame: the place
        // it goes in whichever list takes it.
        let (runs, at) = match &mut self.window_log {
            Some(log) => {
                log.push((start, start + tx));
                (&mut self.overlay, j)
            }
            None => (Arc::make_mut(&mut self.calendar.0), i),
        };
        if tx > 0 {
            // Coalesce with abutting neighbors so back-to-back traffic
            // stays one run.
            let joins_prev = at > 0 && runs[at - 1].1 == start;
            let joins_next = runs.get(at).is_some_and(|&(lo, _)| lo == start + tx);
            match (joins_prev, joins_next) {
                (true, true) => runs[at - 1].1 = runs.remove(at).1,
                (true, false) => runs[at - 1].1 = start + tx,
                (false, true) => runs[at].0 = start,
                (false, false) => runs.insert(at, (start, start + tx)),
            }
        }
        let queue = SimTime::from_nanos(start - now.as_nanos());
        let tx = SimTime::from_nanos(tx);
        self.stats.frames += 1;
        self.stats.bytes += bytes as u64;
        self.stats.queue_total += queue;
        self.stats.queue_peak = self.stats.queue_peak.max(queue);
        self.stats.busy += tx;
        queue + tx
    }

    /// Aggregate trunk statistics.
    pub fn stats(&self) -> SharedStats {
        self.stats
    }

    /// The trunk's busy calendar; a clone of it is the frozen base a
    /// window's ports sync to. A windowed port's own placements are not
    /// in it.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Re-grounds this port on a master calendar as it stands now and
    /// starts a fresh window log: subsequent admissions see the master's
    /// reservations through the previous window plus only this port's own
    /// in-window placements. Shares `frozen`'s buffer; copies nothing.
    /// Stats reset to zero so [`SharedBandwidth::take_window`] yields a
    /// pure delta.
    pub fn sync_window(&mut self, frozen: &Calendar) {
        self.calendar = frozen.clone();
        self.overlay.clear();
        self.stats = SharedStats::default();
        self.window_log = Some(Vec::new());
    }

    /// Takes the finished window: the raw intervals this port placed and
    /// the statistics delta it accumulated since the last sync.
    pub fn take_window(&mut self) -> TrunkWindow {
        let intervals = self.window_log.take().unwrap_or_default();
        let stats = std::mem::take(&mut self.stats);
        TrunkWindow { intervals, stats }
    }

    /// Merges one finished port window into this (master) trunk: busy
    /// intervals union in — overlap-coalescing, because concurrent ports
    /// may have placed overlapping reservations inside one window — and
    /// the statistics delta adds on. Interval union and the commutative
    /// stat folds (sums and a max) make the merged state independent of
    /// the order windows are applied in.
    pub fn merge_window(&mut self, w: &TrunkWindow) {
        let mut log: Vec<(u64, u64)> =
            w.intervals.iter().copied().filter(|&(lo, hi)| hi > lo).collect();
        log.sort_unstable();
        let placed: u64 = log.iter().map(|&(lo, hi)| hi - lo).sum();
        let grown = self.calendar.union(&log);
        self.stats.oversubscribed += SimTime::from_nanos(placed - grown);
        self.stats.absorb(&w.stats);
    }

    /// Drops calendar runs ending at or before `horizon`. Safe once
    /// every port's clock has passed the horizon: admissions only consult
    /// runs covering or following their start instant, so a reservation
    /// wholly in the past can never move a future placement. Keeps the
    /// master calendar bounded to roughly one window of traffic.
    pub fn prune_before(&mut self, horizon: SimTime) {
        let h = horizon.as_nanos();
        // Disjoint runs sorted by start have sorted ends too.
        let past = self.calendar.runs().partition_point(|&(_, end)| end <= h);
        if past > 0 {
            Arc::make_mut(&mut self.calendar.0).drain(..past);
        }
    }
}

/// A handle to a [`SharedBandwidth`] trunk, cloneable per channel. `Rc`
/// because a trunk (or a windowed port) is owned by one thread: every
/// channel attached to it belongs to one scheduler slot, and a slot lives
/// and dies on the worker that built it. Only [`Calendar`] clones and
/// [`TrunkWindow`]s cross threads.
pub type SharedLink = Rc<RefCell<SharedBandwidth>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_queues_fifo() {
        let mut bw = SharedBandwidth::new(SimTime::from_nanos(10));
        // First frame at t=0: no queue, 1000ns of serialization.
        let d1 = bw.admit(SimTime::ZERO, 100);
        assert_eq!(d1.as_nanos(), 1_000);
        // Second frame at t=200 queues behind the first (busy to 1000).
        let d2 = bw.admit(SimTime::from_nanos(200), 50);
        assert_eq!(d2.as_nanos(), 800 + 500);
        // Third frame after the trunk went idle: serialization only.
        let d3 = bw.admit(SimTime::from_nanos(10_000), 10);
        assert_eq!(d3.as_nanos(), 100);
        let s = bw.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.bytes, 160);
        assert_eq!(s.queue_total.as_nanos(), 800);
        assert_eq!(s.queue_peak.as_nanos(), 800);
        assert_eq!(s.busy.as_nanos(), 1_600);
    }

    #[test]
    fn out_of_order_admission_is_causal() {
        let mut bw = SharedBandwidth::new(SimTime::from_nanos(10));
        // A pair far ahead on the global clock reserves [1ms, 1ms+1µs).
        let far = bw.admit(SimTime::from_nanos(1_000_000), 100);
        assert_eq!(far.as_nanos(), 1_000);
        // A frame sent at t=0 must NOT queue behind the far-future
        // reservation — the trunk is idle at t=0.
        let early = bw.admit(SimTime::ZERO, 100);
        assert_eq!(early.as_nanos(), 1_000, "serialization only, no queue");
        assert_eq!(bw.stats().queue_total, SimTime::ZERO);
    }

    #[test]
    fn frames_fill_gaps_between_reservations() {
        let mut bw = SharedBandwidth::new(SimTime::from_nanos(10));
        bw.admit(SimTime::ZERO, 100); // busy [0, 1000)
        bw.admit(SimTime::from_nanos(5_000), 100); // busy [5000, 6000)
                                                   // 100ns frame at t=2000 fits in the gap: no queue.
        let d = bw.admit(SimTime::from_nanos(2_000), 10);
        assert_eq!(d.as_nanos(), 100);
        // A 401-byte frame at t=500 needs a 4.01µs gap; neither
        // [1000, 2000) nor [2100, 5000) is wide enough, so it starts
        // when the last reservation ends at 6000.
        let d = bw.admit(SimTime::from_nanos(500), 401);
        assert_eq!(d.as_nanos(), (6_000 - 500) + 4_010);
    }

    #[test]
    fn union_insert_coalesces_overlaps_and_abutments() {
        let mut master = SharedBandwidth::new(SimTime::from_nanos(10));
        let w = TrunkWindow {
            intervals: vec![(100, 200), (150, 300), (300, 400), (500, 600), (50, 120)],
            stats: SharedStats::default(),
        };
        master.merge_window(&w);
        let got = master.calendar().runs();
        assert_eq!(got, vec![(50, 400), (500, 600)]);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let a = TrunkWindow { intervals: vec![(0, 100), (250, 300)], ..Default::default() };
        let b = TrunkWindow { intervals: vec![(80, 260), (400, 500)], ..Default::default() };
        let mut m1 = SharedBandwidth::new(SimTime::from_nanos(10));
        m1.merge_window(&a);
        m1.merge_window(&b);
        let mut m2 = SharedBandwidth::new(SimTime::from_nanos(10));
        m2.merge_window(&b);
        m2.merge_window(&a);
        assert_eq!(m1.calendar(), m2.calendar());
        let got = m1.calendar().runs();
        assert_eq!(got, vec![(0, 300), (400, 500)]);
    }

    #[test]
    fn windowed_port_sees_frozen_master_plus_own_traffic() {
        let mut master = SharedBandwidth::new(SimTime::from_nanos(10));
        master.admit(SimTime::ZERO, 100); // master busy [0, 1000)
        let mut port = SharedBandwidth::new(SimTime::from_nanos(10));
        port.sync_window(master.calendar());
        // The port queues behind the frozen reservation …
        let d = port.admit(SimTime::from_nanos(500), 50);
        assert_eq!(d.as_nanos(), 500 + 500);
        // … and behind its own in-window placement.
        let d = port.admit(SimTime::from_nanos(1_200), 10);
        assert_eq!(d.as_nanos(), 300 + 100);
        let w = port.take_window();
        assert_eq!(w.intervals, vec![(1_000, 1_500), (1_500, 1_600)]);
        assert_eq!(w.stats.frames, 2);
        assert_eq!(w.stats.queue_total.as_nanos(), 800);
        master.merge_window(&w);
        let got = master.calendar().runs();
        assert_eq!(got, vec![(0, 1_600)]);
        assert_eq!(master.stats().frames, 3);
    }

    #[test]
    fn prune_drops_only_fully_past_intervals() {
        let mut bw = SharedBandwidth::new(SimTime::from_nanos(10));
        bw.admit(SimTime::ZERO, 100); // [0, 1000)
        bw.admit(SimTime::from_nanos(2_000), 100); // [2000, 3000)
        bw.admit(SimTime::from_nanos(5_000), 100); // [5000, 6000)
        bw.prune_before(SimTime::from_nanos(3_000));
        let got = bw.calendar().runs();
        assert_eq!(got, vec![(5_000, 6_000)]);
        // Placement after the prune is unaffected for any admit at or
        // past the horizon.
        let d = bw.admit(SimTime::from_nanos(5_500), 10);
        assert_eq!(d.as_nanos(), 500 + 100);
    }
}
