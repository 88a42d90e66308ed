//! Transparent primary-backup fault tolerance for the `ftjvm` virtual
//! machine — a from-scratch reproduction of *A Fault-Tolerant Java Virtual
//! Machine* (Napper, Alvisi, Vin; DSN 2003).
//!
//! The VM (crate `ftjvm-vm`) is modelled as a set of cooperating state
//! machines, one bytecode execution engine per application thread (§3).
//! This crate eliminates every source of non-determinism so that a cold
//! backup can replay the primary's log and take over transparently:
//!
//! * **Non-deterministic native methods** (§4.1) — results logged at the
//!   primary, adopted at the backup ([`primary`], [`backup`]);
//! * **Non-deterministic read sets** under multithreading (§4.2) — two
//!   interchangeable techniques, selected by [`ReplicationMode`]:
//!   *replicated lock synchronization* (per-acquisition records + virtual
//!   lock ids) and *replicated thread scheduling* (per-switch progress
//!   records: `br_cnt`, `pc_off`, `mon_cnt`);
//! * **Output to the environment** (§3.4) — output commit with pessimistic
//!   acknowledgment, testable/idempotent outputs, and *side-effect
//!   handlers* ([`se`]) recovering volatile environment state (§4.4).
//!
//! # Quick start
//!
//! ```
//! use ftjvm_core::{FtConfig, FtJvm, ReplicationMode};
//! use ftjvm_netsim::FaultPlan;
//! use ftjvm_vm::program::ProgramBuilder;
//! use std::sync::Arc;
//!
//! // A program that prints 1, 2, 3.
//! let mut b = ProgramBuilder::new();
//! let print = b.import_native("sys.print_int", 1, false);
//! let mut m = b.method("main", 1);
//! for i in 1..=3 {
//!     m.push_i(i).invoke_native(print, 1);
//! }
//! m.ret_void();
//! let entry = m.build(&mut b);
//! let program = Arc::new(b.build(entry)?);
//!
//! // Crash the primary before its second output; the backup takes over.
//! let cfg = FtConfig {
//!     mode: ReplicationMode::LockSync,
//!     fault: FaultPlan::BeforeOutput(1),
//!     ..FtConfig::default()
//! };
//! let report = FtJvm::new(program, cfg).run_with_failure()?;
//! assert!(report.crashed);
//! assert_eq!(report.console(), vec!["1", "2", "3"]);
//! report.check_no_duplicate_outputs().expect("exactly-once output");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod codec;
pub mod fleet;
pub mod ftjvm;
pub mod group;
pub mod pair;
pub mod parallel;
pub mod primary;
pub mod records;
pub mod runtime;
pub mod se;
pub mod stats;

pub use backup::{Backup, BackupLog, Control, EpochStore, RecvWindow, ReplayError, ResumeSeed};
pub use codec::{
    build_batch_frame, build_epoch_frame, build_snapshot_chunk, crc32c, decode_frames,
    frame_is_epoch_mark, frame_is_snapshot_chunk, open_frame, parse_epoch_frame,
    parse_snapshot_chunk, seal_frame, FrameError, RecordDecoder, RecordEncoder, SnapshotAssembler,
};
pub use fleet::{
    run_fleet, split_seed, FleetConfig, FleetReport, PairOutcome, PairPlan, RouterMode,
};
pub use ftjvm::{FtConfig, FtJvm, LockVariant, PairReport, ReplicationMode, Technique};
pub use ftjvm_netsim::{NetFaultPlan, WireCodec};
pub use group::{
    FailoverRecord, GroupConfig, GroupEvent, GroupMoment, GroupReport, GroupTask, ReignStats,
    StandbyEnd,
};
pub use pair::{CheckpointPlan, CheckpointReport};
pub use parallel::{run_windowed, PoolOptions, PoolStats, WindowTask};
pub use primary::{AckPolicy, LogChannel, Primary, PrimaryCore, ReliableLink, SendWindow};
pub use records::{LoggedResult, Record, WireValue};
pub use runtime::{LagBudget, Replica};
pub use se::{SeRegistration, SeRegistry, SideEffectHandler, SocketHandler};
pub use stats::ReplicationStats;
