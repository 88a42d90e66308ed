//! Simulated substrate for replica pairs: a virtual clock, a calibrated cost
//! model, a FIFO message channel with latency accounting, a wire format, and
//! fail-stop fault injection.
//!
//! The DSN 2003 fault-tolerant JVM paper ran its primary and backup on two
//! Sun E5000 servers connected by 100 Mbps Ethernet and decomposed the
//! measured overhead into categories (communication, pessimism, bookkeeping).
//! This crate provides the analogous *simulated* testbed: every action a
//! replica performs is charged to a [`Category`] of a [`TimeAccount`]
//! according to a [`CostModel`], and replica-to-replica messages flow through
//! a [`SimChannel`] that models per-message and per-byte latency.
//!
//! Nothing in this crate knows about the JVM; it is a reusable discrete-cost
//! simulation layer.
//!
//! # Example
//!
//! ```
//! use ftjvm_netsim::{CostModel, SimChannel, TimeAccount, Category};
//!
//! let cost = CostModel::default();
//! let mut acct = TimeAccount::new();
//! let mut chan = SimChannel::new(cost.net.clone());
//! acct.charge(Category::Communication, chan.send(acct.now(), b"hello".to_vec()));
//! assert_eq!(chan.stats().messages_sent, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod clock;
pub mod cost;
pub mod fault;
pub mod lossy;
pub mod shared;
pub mod wire;

pub use channel::{ChannelStats, NetParams, SimChannel};
pub use clock::{SimClock, SimTime};
pub use cost::{Category, CostModel, TimeAccount};
pub use fault::{FailureDetector, FaultPlan, HeartbeatMonitor};
pub use lossy::{FaultDecision, LossyChannel, NetFaultPlan};
pub use shared::{Calendar, SharedBandwidth, SharedLink, SharedStats, TrunkWindow};
pub use wire::{crc32c, WireCodec, WireError, WireReader, WireWriter};
