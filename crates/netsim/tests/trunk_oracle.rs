//! Oracle test for the shared-trunk calendar: [`SharedBandwidth`] driven
//! side by side with a naive reference — a plain list of busy intervals,
//! every question answered by scanning all of it — over random scripts.
//! The placement rule is a function on point sets (first gap of
//! `bytes × per_byte` at or after `now`), so any representation must give
//! the same delays, window logs, statistics and merged calendars.

use ftjvm_netsim::{SharedBandwidth, SharedStats, SimTime, TrunkWindow};
use proptest::prelude::*;

const PER_BYTE: u64 = 10;

/// Earliest instant at or after `now` with `tx` ns of trunk free. An
/// interval blocks the frame when the two intersect (a zero-length frame:
/// when it falls inside the interval), and then nothing before the
/// interval's end can work either.
fn first_gap(busy: &[(u64, u64)], now: u64, tx: u64) -> u64 {
    let mut start = now;
    while let Some(&(_, hi)) = busy.iter().find(|&&(lo, hi)| lo < start + tx.max(1) && start < hi) {
        start = hi;
    }
    start
}

/// The same point set as sorted runs that neither overlap nor touch.
fn normalized(mut busy: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    busy.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in busy {
        match runs.last_mut() {
            Some(last) if last.1 >= lo => last.1 = last.1.max(hi),
            _ => runs.push((lo, hi)),
        }
    }
    runs
}

fn measure(busy: &[(u64, u64)]) -> u64 {
    busy.iter().map(|&(lo, hi)| hi - lo).sum()
}

/// The reference trunk. `busy` holds non-empty intervals only.
#[derive(Default)]
struct Naive {
    busy: Vec<(u64, u64)>,
    stats: SharedStats,
}

impl Naive {
    /// Places one frame against `frozen ∪ self.busy`; returns the delay
    /// and the interval placed.
    fn admit(&mut self, frozen: &[(u64, u64)], now: u64, bytes: usize) -> (u64, (u64, u64)) {
        let tx = PER_BYTE * bytes as u64;
        let all: Vec<_> = frozen.iter().chain(&self.busy).copied().collect();
        let start = first_gap(&all, now, tx);
        if tx > 0 {
            self.busy.push((start, start + tx));
        }
        let queue = SimTime::from_nanos(start - now);
        self.stats.frames += 1;
        self.stats.bytes += bytes as u64;
        self.stats.queue_total += queue;
        self.stats.queue_peak = self.stats.queue_peak.max(queue);
        self.stats.busy += SimTime::from_nanos(tx);
        (start - now + tx, (start, start + tx))
    }

    fn merge(&mut self, w: &TrunkWindow) {
        let before = measure(&self.busy);
        let placed = measure(&w.intervals);
        self.busy.extend(w.intervals.iter().filter(|&&(lo, hi)| hi > lo));
        self.busy = normalized(std::mem::take(&mut self.busy));
        let s = &mut self.stats;
        s.frames += w.stats.frames;
        s.bytes += w.stats.bytes;
        s.queue_total += w.stats.queue_total;
        s.queue_peak = s.queue_peak.max(w.stats.queue_peak);
        s.busy += w.stats.busy;
        s.oversubscribed += SimTime::from_nanos(placed - (measure(&self.busy) - before));
    }

    fn prune(&mut self, horizon: u64) {
        self.busy.retain(|&(_, hi)| hi > horizon);
    }
}

/// Frame sizes: empty, small (tens of ns — many fit between two large
/// ones, so a large frame must skip many intervals), large.
fn frame_bytes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..8, 1usize..8, 50usize..400]
}

/// A prune after about one admission in five.
fn prune_horizon() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), Just(None), Just(None), Just(None), (0u64..40_000).prop_map(Some)]
}

/// One window of a windowed scheduler: what each port admits (instants
/// relative to the window's base, in any order), a key that shuffles the
/// merge order, and whether the master prunes to the window's base.
#[derive(Debug, Clone)]
struct Round {
    ports: Vec<Vec<(u64, usize)>>,
    shuffle: u64,
    prune: bool,
}

fn round() -> impl Strategy<Value = Round> {
    let admits = proptest::collection::vec((0u64..30_000, frame_bytes()), 0..14);
    (proptest::collection::vec(admits, 1..6), any::<u64>(), any::<bool>())
        .prop_map(|(ports, shuffle, prune)| Round { ports, shuffle, prune })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A coupled trunk: every admission, at instants in any order, sees
    /// all earlier ones; prunes in between.
    #[test]
    fn coupled_trunk_matches_naive(
        ops in proptest::collection::vec((0u64..40_000, frame_bytes(), prune_horizon()), 1..120)
    ) {
        let mut real = SharedBandwidth::new(SimTime::from_nanos(PER_BYTE));
        let mut naive = Naive::default();
        for (now, bytes, prune) in ops {
            let got = real.admit(SimTime::from_nanos(now), bytes).as_nanos();
            prop_assert_eq!(got, naive.admit(&[], now, bytes).0, "delay at {} for {} bytes", now, bytes);
            if let Some(h) = prune {
                real.prune_before(SimTime::from_nanos(h));
                naive.busy = normalized(std::mem::take(&mut naive.busy));
                naive.prune(h);
            }
            prop_assert_eq!(real.calendar().runs(), &normalized(naive.busy.clone())[..]);
        }
        prop_assert_eq!(real.stats(), naive.stats);
        prop_assert_eq!(real.stats().oversubscribed, SimTime::ZERO);
    }

    /// The windowed protocol: every port syncs to the master's calendar,
    /// admits against it plus its own placements, hands back its window;
    /// the master merges the windows in a shuffled order and prunes.
    #[test]
    fn windowed_ports_match_naive(rounds in proptest::collection::vec(round(), 1..8)) {
        let per_byte = SimTime::from_nanos(PER_BYTE);
        let mut master = SharedBandwidth::new(per_byte);
        let mut naive_master = Naive::default();
        let mut ports: Vec<SharedBandwidth> = (0..6).map(|_| SharedBandwidth::new(per_byte)).collect();
        for (k, round) in rounds.iter().enumerate() {
            let base = k as u64 * 10_000;
            let frozen = master.calendar().clone();
            let frozen_runs = frozen.runs().to_vec();
            let mut windows = Vec::new();
            for (port, admits) in ports.iter_mut().zip(&round.ports) {
                port.sync_window(&frozen);
                let mut naive_port = Naive::default();
                let mut naive_log = Vec::new();
                for &(at, bytes) in admits {
                    let got = port.admit(SimTime::from_nanos(base + at), bytes).as_nanos();
                    let (want, placed) = naive_port.admit(&naive_master.busy, base + at, bytes);
                    prop_assert_eq!(got, want, "round {} delay at {} for {} bytes", k, at, bytes);
                    naive_log.push(placed);
                }
                prop_assert_eq!(port.stats(), naive_port.stats);
                let w = port.take_window();
                prop_assert_eq!(&w.intervals, &naive_log, "round {} window log", k);
                prop_assert_eq!(w.stats, naive_port.stats);
                windows.push(w);
            }
            // Any order: sort by a keyed hash of the port index.
            let mut order: Vec<usize> = (0..windows.len()).collect();
            order.sort_by_key(|&i| (i as u64 ^ round.shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for i in order {
                master.merge_window(&windows[i]);
                naive_master.merge(&windows[i]);
                prop_assert_eq!(master.calendar().runs(), &naive_master.busy[..]);
            }
            prop_assert_eq!(frozen.runs(), &frozen_runs[..], "merging wrote through a snapshot");
            if round.prune {
                master.prune_before(SimTime::from_nanos(base));
                naive_master.prune(base);
            }
            prop_assert_eq!(master.calendar().runs(), &naive_master.busy[..]);
            prop_assert_eq!(master.stats(), naive_master.stats);
        }
    }
}
