//! A fault-injecting wrapper around the simulated log link.
//!
//! The paper assumes TCP on a dedicated Ethernet segment between primary
//! and backup, so [`crate::SimChannel`] is reliable FIFO by construction.
//! This module drops that axiom: a [`LossyChannel`] applies a seeded,
//! deterministic [`NetFaultPlan`] — drop, duplicate, reorder (delay
//! jitter), corrupt-bytes, and transient partition windows — to every
//! *send attempt*, modelling a raw datagram link. The reliable-delivery
//! sublayer (sequence numbers + CRC + ack/nack + retransmission, built in
//! `ftjvm-core`) must recover exactly-once in-order delivery on top.
//!
//! Determinism: every fault decision is a pure function of
//! `(plan.seed, attempt_index)` via a splitmix64 hash, so a run is exactly
//! reproducible from the seed regardless of call interleaving, and
//! retransmissions of the same frame (new attempt indices) face fresh,
//! independent faults.

use crate::channel::{ChannelStats, NetParams};
use crate::clock::SimTime;
use bytes::Bytes;
use std::collections::VecDeque;

/// A deterministic, seeded plan of network faults applied per send attempt.
///
/// Probabilities are evaluated independently per attempt; pinned indices
/// force a fault on one specific attempt (0-based, counting every send on
/// the link, retransmissions included). The default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetFaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Probability that an attempt is silently dropped.
    pub drop: f64,
    /// Probability that an attempt is delivered twice.
    pub duplicate: f64,
    /// Probability that one payload byte is flipped in flight.
    pub corrupt: f64,
    /// Probability that an attempt is delayed by extra jitter (up to
    /// [`NetFaultPlan::jitter`]), allowing later sends to overtake it.
    pub reorder: f64,
    /// Maximum extra delay applied to jittered attempts.
    pub jitter: SimTime,
    /// Attempt indices that are always dropped.
    pub drop_at: Vec<u64>,
    /// Attempt indices that are always duplicated.
    pub duplicate_at: Vec<u64>,
    /// Attempt indices that are always corrupted.
    pub corrupt_at: Vec<u64>,
    /// Half-open attempt-index windows `[start, end)` during which the
    /// link is partitioned: every attempt inside a window is dropped.
    pub partitions: Vec<(u64, u64)>,
    /// Probability that a replica's record-bearing frame is *byzantine* —
    /// one payload byte flipped by the sender itself, after digests are
    /// computed but before the frame is CRC-sealed, so the link-level
    /// checksum validates and only quorum voting can catch it. Applied by
    /// the replica's send path (not the wire), per record frame.
    pub byzantine: f64,
    /// Record-frame indices (0-based, per replica) that are always sent
    /// byzantine.
    pub byzantine_at: Vec<u64>,
    /// Restricts byzantine flips to one fan-out link (equivocation: the
    /// replicas disagree with each other). `None` flips the same frame on
    /// every link (the sender itself is corrupted).
    pub byzantine_link: Option<u32>,
}

/// What the plan decided for one send attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    /// Drop the frame entirely (loss or partition window).
    pub drop: bool,
    /// Deliver the frame a second time.
    pub duplicate: bool,
    /// Flip one payload byte: `(byte index ∝ payload len, xor mask ≠ 0)`.
    pub corrupt: Option<(usize, u8)>,
    /// Extra in-flight delay beyond the nominal arrival.
    pub delay: SimTime,
}

/// splitmix64 — the same small PRNG the proptest shim uses; one hash per
/// decision keeps faults independent of call interleaving.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform probability in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl NetFaultPlan {
    /// A plan that drops each attempt with probability `drop`, nothing else.
    pub fn uniform_loss(seed: u64, drop: f64) -> Self {
        NetFaultPlan { seed, drop, ..NetFaultPlan::default() }
    }

    /// Whether this plan can inject any fault at all. An unarmed plan lets
    /// the runtime keep the perfect FIFO channel (and its exact seed-run
    /// timing) instead of paying for the reliability sublayer.
    pub fn is_armed(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.reorder > 0.0
            || !self.drop_at.is_empty()
            || !self.duplicate_at.is_empty()
            || !self.corrupt_at.is_empty()
            || !self.partitions.is_empty()
            || self.is_byzantine()
    }

    /// Whether this plan ever flips sender-side bytes (the BFT-lite
    /// adversary). Checked by the replica's send path, not the wire.
    pub fn is_byzantine(&self) -> bool {
        self.byzantine > 0.0 || !self.byzantine_at.is_empty()
    }

    /// The (deterministic) byzantine decision for the sender's
    /// `frame_index`-th record frame on fan-out link `link`: `Some((byte
    /// index ∝ payload len, xor mask ≠ 0))` if the sender flips a byte
    /// before sealing, `None` if the frame goes out honest. Uses a hash
    /// stream disjoint from [`NetFaultPlan::decide`]'s wire-fault lanes.
    pub fn byzantine_flip(&self, frame_index: u64, link: u32, len: usize) -> Option<(usize, u8)> {
        if len == 0 || !self.is_byzantine() {
            return None;
        }
        if self.byzantine_link.is_some_and(|only| only != link) {
            return None;
        }
        let roll = |lane: u64| {
            splitmix64(
                self.seed
                    ^ 0xB12A_17CE_0000_0000
                    ^ splitmix64(frame_index.wrapping_mul(8).wrapping_add(lane)),
            )
        };
        if self.byzantine_at.contains(&frame_index) || unit(roll(0)) < self.byzantine {
            let h = roll(1);
            let idx = (h as usize) % len;
            let mask = ((h >> 32) as u8).max(1);
            Some((idx, mask))
        } else {
            None
        }
    }

    fn roll(&self, attempt: u64, lane: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(attempt.wrapping_mul(4).wrapping_add(lane)))
    }

    /// The (deterministic) fault decision for send attempt `attempt` of a
    /// frame `len` bytes long.
    pub fn decide(&self, attempt: u64, len: usize) -> FaultDecision {
        let partitioned = self.partitions.iter().any(|&(s, e)| attempt >= s && attempt < e);
        let drop = partitioned
            || self.drop_at.contains(&attempt)
            || unit(self.roll(attempt, 0)) < self.drop;
        let duplicate =
            self.duplicate_at.contains(&attempt) || unit(self.roll(attempt, 1)) < self.duplicate;
        let corrupt = if len > 0
            && (self.corrupt_at.contains(&attempt) || unit(self.roll(attempt, 2)) < self.corrupt)
        {
            let h = self.roll(attempt, 3);
            let idx = (h as usize) % len;
            // A zero mask would be a no-op "corruption"; force at least one
            // flipped bit.
            let mask = ((h >> 32) as u8).max(1);
            Some((idx, mask))
        } else {
            None
        };
        let delay = if self.jitter > SimTime::ZERO && unit(self.roll(attempt, 4)) < self.reorder {
            let h = self.roll(attempt, 5);
            SimTime::from_nanos(h % self.jitter.as_nanos().max(1) + 1)
        } else {
            SimTime::ZERO
        };
        FaultDecision { drop, duplicate, corrupt, delay }
    }
}

/// An unreliable datagram link with the same cost model as
/// [`crate::SimChannel`] but none of its guarantees: frames can be lost,
/// duplicated, corrupted, or overtaken in flight according to a
/// [`NetFaultPlan`].
///
/// Unlike `SimChannel` there is no FIFO clamp — each frame's arrival is
/// `send + serialization + propagation (+ jitter)` independently, so a
/// delayed frame is overtaken by later ones.
#[derive(Debug)]
pub struct LossyChannel {
    params: NetParams,
    plan: NetFaultPlan,
    /// (arrival instant, payload), kept sorted by arrival; frames that
    /// arrive at the same instant keep their send order. Due frames leave
    /// from the front.
    in_flight: VecDeque<(SimTime, Bytes)>,
    attempts: u64,
    stats: ChannelStats,
}

impl LossyChannel {
    /// Creates an empty lossy link.
    pub fn new(params: NetParams, plan: NetFaultPlan) -> Self {
        LossyChannel {
            params,
            plan,
            in_flight: VecDeque::new(),
            attempts: 0,
            stats: ChannelStats::default(),
        }
    }

    /// The link parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Sends one frame at instant `now`, returning the sender-side CPU
    /// cost. The fault plan decides whether the frame actually arrives,
    /// arrives twice, arrives corrupted, or arrives late.
    pub fn send(&mut self, now: SimTime, payload: impl Into<Bytes>) -> SimTime {
        let payload: Bytes = payload.into();
        let attempt = self.attempts;
        self.attempts += 1;
        let send_cost = self.params.per_message
            + SimTime::from_nanos(self.params.per_byte.as_nanos() * payload.len() as u64);
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        let d = self.plan.decide(attempt, payload.len());
        if d.drop {
            self.stats.drops += 1;
            return send_cost;
        }
        let payload = match d.corrupt {
            Some((idx, mask)) => {
                let mut v = payload.to_vec();
                v[idx] ^= mask;
                Bytes::from(v)
            }
            None => payload,
        };
        let arrival =
            now + send_cost + self.params.propagation + self.params.recv_per_message + d.delay;
        self.deposit(arrival, payload.clone());
        if d.duplicate {
            // The duplicate trails its twin by one receive-processing slot.
            self.deposit(arrival + self.params.recv_per_message, payload);
        }
        send_cost
    }

    fn deposit(&mut self, arrival: SimTime, payload: Bytes) {
        let at = self.in_flight.partition_point(|(t, _)| *t <= arrival);
        self.in_flight.insert(at, (arrival, payload));
    }

    /// The earliest pending arrival, if any frame is in flight.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.in_flight.front().map(|(t, _)| *t)
    }

    /// The earliest frame in flight, if its arrival instant is at or
    /// before `now`.
    #[inline]
    pub fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, Bytes)> {
        if self.in_flight.front()?.0 <= now {
            self.in_flight.pop_front()
        } else {
            None
        }
    }

    /// Frames whose arrival instant is at or before `now`, in arrival order.
    pub fn recv_ready(&mut self, now: SimTime) -> Vec<(SimTime, Bytes)> {
        std::iter::from_fn(|| self.pop_ready(now)).collect()
    }

    /// Delivers everything in flight regardless of time (takeover: frames
    /// already on the wire still arrive; frames the plan dropped do not).
    pub fn drain(&mut self) -> Vec<(SimTime, Bytes)> {
        std::mem::take(&mut self.in_flight).into()
    }

    /// Number of frames still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Aggregate link statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Mutable statistics, so the reliability sublayer can account
    /// receiver/sender protocol events (dups suppressed, retransmits,
    /// NACKs) next to the link-level counters.
    pub fn stats_mut(&mut self) -> &mut ChannelStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NetParams {
        NetParams {
            per_message: SimTime::from_nanos(100),
            per_byte: SimTime::from_nanos(10),
            propagation: SimTime::from_nanos(1_000),
            recv_per_message: SimTime::from_nanos(50),
            ack_cost: SimTime::from_nanos(100),
        }
    }

    #[test]
    fn unarmed_plan_is_lossless_and_ordered() {
        let mut ch = LossyChannel::new(params(), NetFaultPlan::default());
        for i in 0..20u8 {
            ch.send(SimTime::from_nanos(i as u64 * 10_000), vec![i]);
        }
        let got: Vec<u8> = ch.drain().iter().map(|(_, b)| b[0]).collect();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        assert_eq!(ch.stats().drops, 0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = NetFaultPlan { seed: 7, drop: 0.5, ..NetFaultPlan::default() };
        let b = NetFaultPlan { seed: 8, drop: 0.5, ..NetFaultPlan::default() };
        let da: Vec<bool> = (0..64).map(|i| a.decide(i, 16).drop).collect();
        let da2: Vec<bool> = (0..64).map(|i| a.decide(i, 16).drop).collect();
        let db: Vec<bool> = (0..64).map(|i| b.decide(i, 16).drop).collect();
        assert_eq!(da, da2);
        assert_ne!(da, db);
        let dropped = da.iter().filter(|&&d| d).count();
        assert!((16..=48).contains(&dropped), "≈50% drop rate, got {dropped}/64");
    }

    #[test]
    fn pinned_faults_hit_their_attempt() {
        let plan = NetFaultPlan {
            drop_at: vec![3],
            duplicate_at: vec![1],
            corrupt_at: vec![2],
            partitions: vec![(10, 12)],
            ..NetFaultPlan::default()
        };
        assert!(plan.decide(3, 8).drop);
        assert!(plan.decide(1, 8).duplicate);
        let (idx, mask) = plan.decide(2, 8).corrupt.expect("pinned corruption");
        assert!(idx < 8 && mask != 0);
        assert!(plan.decide(10, 8).drop && plan.decide(11, 8).drop);
        let clean = plan.decide(0, 8);
        assert!(!clean.drop && !clean.duplicate && clean.corrupt.is_none());
    }

    #[test]
    fn drop_duplicate_and_corrupt_are_applied() {
        let plan = NetFaultPlan {
            drop_at: vec![0],
            duplicate_at: vec![1],
            corrupt_at: vec![2],
            ..NetFaultPlan::default()
        };
        let mut ch = LossyChannel::new(params(), plan);
        ch.send(SimTime::ZERO, vec![0xAA; 4]); // dropped
        ch.send(SimTime::ZERO, vec![0xBB; 4]); // duplicated
        ch.send(SimTime::ZERO, vec![0xCC; 4]); // corrupted
        let got = ch.drain();
        assert_eq!(ch.stats().drops, 1);
        assert_eq!(got.len(), 3, "duplicate delivered twice, drop never");
        assert_eq!(got.iter().filter(|(_, b)| b[0] == 0xBB).count(), 2);
        assert_eq!(
            got.iter().filter(|(_, b)| b.iter().any(|&x| x != 0xCC) && b[0] != 0xBB).count(),
            1
        );
    }

    #[test]
    fn jitter_reorders_but_drops_nothing() {
        let plan = NetFaultPlan {
            seed: 42,
            reorder: 0.5,
            jitter: SimTime::from_micros(500),
            ..NetFaultPlan::default()
        };
        let mut ch = LossyChannel::new(params(), plan);
        for i in 0..32u8 {
            ch.send(SimTime::from_nanos(i as u64 * 2_000), vec![i]);
        }
        let got = ch.drain();
        assert_eq!(got.len(), 32);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by arrival");
        let order: Vec<u8> = got.iter().map(|(_, b)| b[0]).collect();
        assert_ne!(order, (0..32).collect::<Vec<u8>>(), "some frame was overtaken");
    }
}
