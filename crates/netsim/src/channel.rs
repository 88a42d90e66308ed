//! The simulated primary-to-backup log channel.
//!
//! Models the paper's testbed link (100 Mbps Ethernet between two servers)
//! as a reliable FIFO channel with a fixed per-message cost, a per-byte
//! cost, and a propagation delay. The *sender-side CPU cost* of a send is
//! what the paper charges to "Communication Overhead"; the time spent
//! blocked until an acknowledgment returns is "Pessimistic Overhead".

use crate::clock::SimTime;
use bytes::Bytes;
use std::collections::VecDeque;

/// Link parameters for a [`SimChannel`].
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Sender-side fixed cost per message (syscall + protocol stack).
    pub per_message: SimTime,
    /// Sender-side cost per payload byte (copy + serialization + wire time
    /// at 100 Mbps ≈ 80 ns/byte).
    pub per_byte: SimTime,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Receiver-side cost to process one message and append it to the log.
    pub recv_per_message: SimTime,
    /// Cost for the backup to generate an acknowledgment message.
    pub ack_cost: SimTime,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            per_message: SimTime::from_micros(18),
            per_byte: SimTime::from_nanos(90),
            propagation: SimTime::from_micros(60),
            recv_per_message: SimTime::from_micros(6),
            ack_cost: SimTime::from_micros(14),
        }
    }
}

/// Counters describing everything a channel has carried.
///
/// The reliability counters (`drops` onward) stay zero on the perfect
/// [`SimChannel`]; they are populated by the lossy link
/// ([`crate::LossyChannel`]) and the reliable-delivery sublayer built on
/// top of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages passed to [`SimChannel::send`].
    pub messages_sent: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Acknowledgment round trips performed.
    pub ack_round_trips: u64,
    /// Frames the network dropped in flight (including partition windows).
    pub drops: u64,
    /// Duplicate frames suppressed at the receiver (injected duplicates
    /// plus spurious retransmissions).
    pub dup_deliveries: u64,
    /// Frames the receiver rejected because the CRC or header check failed.
    pub corrupted_frames: u64,
    /// Frames that arrived out of sequence and had to be buffered.
    pub reordered: u64,
    /// Frames the sender retransmitted (timeout- or NACK-triggered).
    pub retransmits: u64,
    /// Gap reports (NACKs) the receiver sent.
    pub nacks: u64,
}

/// A reliable FIFO simulated channel carrying log messages from the primary
/// to the backup.
///
/// The channel never loses or reorders flushed messages — fail-stop loss is
/// modelled at the *sender*: records still sitting in the primary's buffer
/// when it crashes were never passed to `send` and therefore never exist
/// here.
///
/// ```
/// use ftjvm_netsim::{NetParams, SimChannel, SimTime};
/// let mut ch = SimChannel::new(NetParams::default());
/// let cost = ch.send(SimTime::ZERO, vec![0u8; 36]);
/// assert!(cost > SimTime::ZERO);
/// let delivered = ch.drain();
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].1.len(), 36);
/// ```
#[derive(Debug)]
pub struct SimChannel {
    params: NetParams,
    /// (delivery instant, payload)
    in_flight: VecDeque<(SimTime, Bytes)>,
    last_delivery: SimTime,
    stats: ChannelStats,
    /// Optional shared-trunk capacity (fleet simulations): the handle plus
    /// this channel's local→global clock offset. `None` — the default and
    /// every single-pair path — leaves timing byte-identical to a build
    /// without the fleet layer.
    shared: Option<(crate::SharedLink, SimTime)>,
}

impl SimChannel {
    /// Creates an empty channel with the given link parameters.
    pub fn new(params: NetParams) -> Self {
        SimChannel {
            params,
            in_flight: VecDeque::new(),
            last_delivery: SimTime::ZERO,
            stats: ChannelStats::default(),
            shared: None,
        }
    }

    /// The link parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Attaches a shared-trunk capacity: every subsequent send is also
    /// admitted to `link` at global instant `offset + local send instant`
    /// — into the first idle gap of the trunk's calendar that fits it, not
    /// behind everything admitted before — adding the trunk's queue and
    /// serialization delay to the frame's arrival.
    pub fn attach_shared(&mut self, link: crate::SharedLink, offset: SimTime) {
        self.shared = Some((link, offset));
    }

    /// Sends one message at instant `now`, returning the sender-side CPU
    /// cost (to be charged to the communication category). The message will
    /// be delivered after serialization plus propagation, FIFO after any
    /// message already in flight.
    pub fn send(&mut self, now: SimTime, payload: impl Into<Bytes>) -> SimTime {
        let payload = payload.into();
        let send_cost = self.params.per_message
            + SimTime::from_nanos(self.params.per_byte.as_nanos() * payload.len() as u64);
        let mut arrival = now + send_cost + self.params.propagation;
        if let Some((link, offset)) = &self.shared {
            // The frame reaches the shared trunk after local serialization;
            // queue + trunk-transmission delay lands on top.
            let at_trunk = *offset + now + send_cost;
            arrival += link.borrow_mut().admit(at_trunk, payload.len());
        }
        let arrival = arrival.max(self.last_delivery);
        let arrival = arrival + self.params.recv_per_message;
        self.last_delivery = arrival;
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        self.in_flight.push_back((arrival, payload));
        send_cost
    }

    /// The instant at which an acknowledgment requested at `now` (after all
    /// sends so far) would arrive back at the sender. Waiting until this
    /// instant is the paper's pessimistic output-commit delay.
    pub fn ack_arrival(&mut self, now: SimTime) -> SimTime {
        self.stats.ack_round_trips += 1;
        let backup_done = self.last_delivery.max(now);
        backup_done + self.params.ack_cost + self.params.propagation
    }

    /// Messages whose delivery instant is at or before `now`, in FIFO order.
    pub fn recv_ready(&mut self, now: SimTime) -> Vec<(SimTime, Bytes)> {
        let mut out = Vec::new();
        while let Some((at, _)) = self.in_flight.front() {
            if *at <= now {
                out.push(self.in_flight.pop_front().expect("front checked"));
            } else {
                break;
            }
        }
        out
    }

    /// Delivers everything in flight regardless of time (used when the
    /// backup takes over: all flushed messages are on stable FIFO order).
    pub fn drain(&mut self) -> Vec<(SimTime, Bytes)> {
        self.in_flight.drain(..).collect()
    }

    /// Number of messages still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Aggregate channel statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
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
    fn send_cost_scales_with_bytes() {
        let mut ch = SimChannel::new(params());
        let c1 = ch.send(SimTime::ZERO, vec![0u8; 10]);
        let c2 = ch.send(ch.params().propagation, vec![0u8; 20]);
        assert_eq!(c1.as_nanos(), 200);
        assert_eq!(c2.as_nanos(), 300);
        assert_eq!(ch.stats().bytes_sent, 30);
        assert_eq!(ch.stats().messages_sent, 2);
    }

    #[test]
    fn fifo_delivery_order_is_preserved() {
        let mut ch = SimChannel::new(params());
        ch.send(SimTime::ZERO, vec![1u8]);
        ch.send(SimTime::ZERO, vec![2u8]);
        ch.send(SimTime::ZERO, vec![3u8]);
        let msgs = ch.drain();
        let ids: Vec<u8> = msgs.iter().map(|(_, b)| b[0]).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Delivery instants are non-decreasing.
        assert!(msgs.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn recv_ready_respects_time() {
        let mut ch = SimChannel::new(params());
        ch.send(SimTime::ZERO, vec![1u8]);
        assert!(ch.recv_ready(SimTime::from_nanos(10)).is_empty());
        assert_eq!(ch.recv_ready(SimTime::from_millis(1)).len(), 1);
        assert_eq!(ch.in_flight_len(), 0);
    }

    #[test]
    fn ack_waits_for_all_deliveries() {
        let mut ch = SimChannel::new(params());
        ch.send(SimTime::ZERO, vec![0u8; 100]);
        let ack_at = ch.ack_arrival(SimTime::ZERO);
        // ack must arrive strictly after the message could be delivered
        // plus the return propagation.
        assert!(ack_at.as_nanos() > 2_000);
        assert_eq!(ch.stats().ack_round_trips, 1);
    }
}
