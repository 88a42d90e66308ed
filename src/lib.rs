//! # ftjvm — a fault-tolerant Java-style virtual machine
//!
//! A from-scratch Rust reproduction of **“A Fault-Tolerant Java Virtual
//! Machine”** (Jeff Napper, Lorenzo Alvisi, Harrick Vin — DSN 2003):
//! transparent primary-backup fault tolerance for a multithreaded bytecode
//! virtual machine, built on the state-machine approach.
//!
//! This crate is the facade: it re-exports the workspace's public API so
//! applications can depend on a single crate.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`vm`] | `ftjvm-vm` | the bytecode VM: ISA, interpreter, monitors, green threads, GC, natives |
//! | [`replication`] | `ftjvm-core` | the paper's contribution: both replication techniques, SE handlers, the [`FtJvm`] harness |
//! | [`netsim`] | `ftjvm-netsim` | simulated clock, cost model, log channel, fault injection |
//! | [`workloads`] | `ftjvm-workloads` | SPEC JVM98 benchmark analogs |
//!
//! # Quick start: survive a crash with zero application changes
//!
//! ```
//! use ftjvm::{FtConfig, FtJvm, ReplicationMode};
//! use ftjvm::netsim::FaultPlan;
//! use ftjvm::vm::program::ProgramBuilder;
//! use std::sync::Arc;
//!
//! // An ordinary program: prints running totals.
//! let mut b = ProgramBuilder::new();
//! let print = b.import_native("sys.print_int", 1, false);
//! let mut m = b.method("main", 1);
//! m.push_i(0).store(1);
//! for i in 1..=4 {
//!     m.push_i(i).load(1).add().store(1);
//!     m.load(1).invoke_native(print, 1);
//! }
//! m.ret_void();
//! let entry = m.build(&mut b);
//! let program = Arc::new(b.build(entry)?);
//!
//! // Replicate it; kill the primary between its 2nd and 3rd output.
//! let cfg = FtConfig {
//!     mode: ReplicationMode::ThreadSched,
//!     fault: FaultPlan::AfterOutput(1),
//!     ..FtConfig::default()
//! };
//! let report = FtJvm::new(program, cfg).run_with_failure()?;
//! assert!(report.crashed);
//! assert_eq!(report.console(), vec!["1", "3", "6", "10"]);
//! report.check_no_duplicate_outputs().expect("exactly-once output");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The bytecode virtual machine substrate (re-export of `ftjvm-vm`).
pub mod vm {
    pub use ftjvm_vm::*;
    pub use ftjvm_vm::{
        class, coordinator, env, exec, heap, monitor, native, program, thread, value, vtid,
    };
}

/// The replication layer (re-export of `ftjvm-core`).
pub mod replication {
    pub use ftjvm_core::*;
    pub use ftjvm_core::{backup, fleet, ftjvm, group, primary, records, se, stats};
}

/// The simulation substrate (re-export of `ftjvm-netsim`).
pub mod netsim {
    pub use ftjvm_netsim::*;
}

/// The SPEC JVM98 benchmark analogs (re-export of `ftjvm-workloads`).
pub mod workloads {
    pub use ftjvm_workloads::*;
}

pub use ftjvm_core::{
    AckPolicy, CheckpointPlan, CheckpointReport, FtConfig, FtJvm, GroupConfig, GroupReport,
    GroupTask, LagBudget, LockVariant, NetFaultPlan, PairReport, Replica, ReplicationMode,
    SeRegistry, SideEffectHandler, WireCodec,
};
pub use ftjvm_vm::{NativeRegistry, Program, VmConfig, VmError};
