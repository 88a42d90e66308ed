//! Virtual-machine threads: frames, states, and the per-thread progress
//! counters used by replica coordination.
//!
//! Each application thread is one *bytecode execution engine* (BEE) in the
//! paper's model (§3): an independently replicated state machine. The
//! thread carries the three counters the replication layer logs:
//!
//! * `br_cnt` — control-flow changes executed (schedule records);
//! * `mon_cnt` — monitor acquisitions *and* releases (native-method replay);
//! * `t_asn` — acquisitions only (lock-acquisition records).

use crate::bytecode::{MethodId, NativeId};
use crate::value::{ObjRef, Value};
use crate::vtid::VtPath;
use ftjvm_netsim::SimTime;
use std::fmt;

/// Index of a thread within one VM instance. Replica-local; never appears
/// on the wire (see [`crate::vtid::VtPath`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadIdx(pub u32);

impl fmt::Display for ThreadIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What kind of thread this is. System threads execute no application
/// bytecode on behalf of a BEE and are excluded from replica coordination
/// (paper §4.2: "we cannot reproduce scheduling events that involve system
/// threads").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// An application thread (a replicated BEE).
    App,
    /// The asynchronous garbage-collection worker.
    GcWorker,
    /// The finalizer thread (runs finalize methods on dead objects).
    Finalizer,
}

/// Scheduler state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Blocked in a monitor's entry queue.
    BlockedMonitor {
        /// The contended object.
        obj: ObjRef,
    },
    /// Parked in a monitor's wait set (inside `wait`).
    WaitingMonitor {
        /// The object waited on.
        obj: ObjRef,
    },
    /// Backup-only: the replicated-lock-synchronization replay is holding
    /// this thread until its recorded turn to acquire the lock arrives.
    DeferredMonitor {
        /// The object whose lock the thread wants.
        obj: ObjRef,
    },
    /// Backup-only: a streaming (hot-standby) replay is holding this thread
    /// at a native invocation until the corresponding log record arrives.
    /// The invocation has not started: no counter was bumped, no argument
    /// popped, so waking the thread simply retries the instruction.
    DeferredNative,
    /// Blocked on a VM-internal lock (e.g. the heap lock during GC). These
    /// are not Java monitors: they are never logged and never perturb the
    /// replication counters.
    BlockedInternal,
    /// Sleeping until the given instant.
    Sleeping {
        /// Wake-up instant.
        until: SimTime,
    },
    /// Idle system thread waiting for work.
    Parked,
    /// Finished.
    Terminated,
}

/// One method activation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Executing method.
    pub method: MethodId,
    /// Next instruction index.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// For synchronized methods: the object whose monitor is released on
    /// return or unwind.
    pub sync_obj: Option<ObjRef>,
}

impl Frame {
    /// Creates a frame for `method` with the arguments placed in the lowest
    /// locals.
    pub fn new(method: MethodId, n_locals: u16, args: Vec<Value>) -> Self {
        let mut locals = args;
        locals.resize(n_locals as usize, Value::Null);
        Frame { method, pc: 0, locals, stack: Vec::new(), sync_obj: None }
    }

    /// Re-targets a spare frame at `method`, exactly as [`Frame::new`]
    /// would build it, but keeping the buffers' capacity.
    pub(crate) fn reset(
        &mut self,
        method: MethodId,
        n_locals: u16,
        args: impl Iterator<Item = Value>,
    ) {
        self.method = method;
        self.pc = 0;
        self.locals.clear();
        self.locals.extend(args);
        self.locals.resize(n_locals as usize, Value::Null);
        self.stack.clear();
        self.sync_obj = None;
    }
}

/// An in-progress native-method call (phased natives survive preemption and
/// internal monitor operations between phases).
#[derive(Debug, Clone)]
pub struct NativeActivation {
    /// The native being executed.
    pub native: NativeId,
    /// Next phase index (simple natives have exactly one phase).
    pub phase: usize,
    /// Argument values (receiver first, if any).
    pub args: Vec<Value>,
    /// Phase-local scratch state.
    pub scratch: Vec<Value>,
    /// Monitors acquired inside the native that must be released when it
    /// completes or aborts.
    pub held: Vec<ObjRef>,
    /// A pending monitor acquisition requested by the last phase; retried
    /// until it succeeds.
    pub pending_acquire: Option<ObjRef>,
    /// Outcome adopted from the primary's log, when the backup replays a
    /// logged non-deterministic native (the "execute but discard results"
    /// path of §4.1).
    pub adopted: Option<AdoptedOutcome>,
    /// Output id assigned by the coordinator for an output-performing
    /// native, if any.
    pub output_id: Option<u64>,
    /// Collected out-argument snapshots (arg index, array contents), filled
    /// by the native for the replication layer to log.
    pub out_args: Vec<(u8, Vec<Value>)>,
}

/// A logged native outcome being imposed on a replayed call.
#[derive(Debug, Clone)]
pub struct AdoptedOutcome {
    /// `Ok(return value)` or `Err(exception code)` to impose; `None` keeps
    /// whatever the (re-)executed body produces (used when an uncertain
    /// output is re-performed for real during recovery).
    pub result: Option<Result<Option<Value>, (i64, String)>>,
    /// Array out-arguments to impose after execution (arg index, contents).
    pub out_args: Vec<(u8, Vec<Value>)>,
    /// Whether to actually execute the native body (to reproduce volatile
    /// environment state) before discarding its results.
    pub execute: bool,
    /// For output-performing natives: the output id the primary committed
    /// for this call (used when the replayed body must re-perform or
    /// idempotently re-apply the output).
    pub output_id: Option<u64>,
}

/// Bookkeeping for a thread resuming from `wait`: it must re-acquire the
/// monitor and restore its recursion depth before `wait` returns.
#[derive(Debug, Clone, Copy)]
pub struct WaitResume {
    /// Recursion depth to restore on re-acquisition.
    pub saved_recursion: u32,
}

/// A virtual-machine thread.
#[derive(Debug)]
pub struct VmThread {
    /// This thread's index.
    pub idx: ThreadIdx,
    /// Application or system thread.
    pub kind: ThreadKind,
    /// Replication-stable id; `None` for system threads.
    pub vt: Option<VtPath>,
    /// Scheduler state.
    pub state: ThreadState,
    /// Call stack, innermost last.
    pub frames: Vec<Frame>,
    /// Popped frames kept for their buffers, so a call does not allocate.
    /// Host memory only: no snapshot, digest or comparison reads them.
    pub spare_frames: Vec<Frame>,
    /// Control-flow changes executed (paper: `br_cnt`).
    pub br_cnt: u64,
    /// Monitor acquisitions + releases performed (paper: `mon_cnt`).
    pub mon_cnt: u64,
    /// Monitor acquisitions performed (paper: `t_asn`).
    pub t_asn: u64,
    /// Number of children spawned (assigns sibling ordinals).
    pub children: u32,
    /// In-progress native call, if any.
    pub native: Option<NativeActivation>,
    /// Pending `wait` re-acquisition bookkeeping.
    pub wait_resume: Option<WaitResume>,
    /// Exception object being propagated, if unwinding.
    pub unwinding: Option<ObjRef>,
    /// Monitors currently held (one entry per recursion level), maintained
    /// only when the race detector is enabled.
    pub held_for_race: Vec<ObjRef>,
}

impl VmThread {
    /// Creates a thread that will start by invoking `method` with `args`.
    pub fn new(
        idx: ThreadIdx,
        kind: ThreadKind,
        vt: Option<VtPath>,
        method: MethodId,
        n_locals: u16,
        args: Vec<Value>,
    ) -> Self {
        VmThread {
            idx,
            kind,
            vt,
            state: ThreadState::Runnable,
            frames: vec![Frame::new(method, n_locals, args)],
            spare_frames: Vec::new(),
            br_cnt: 0,
            mon_cnt: 0,
            t_asn: 0,
            children: 0,
            native: None,
            wait_resume: None,
            unwinding: None,
            held_for_race: Vec::new(),
        }
    }

    /// Creates an idle (parked) system thread with no code.
    pub fn new_system(idx: ThreadIdx, kind: ThreadKind) -> Self {
        VmThread {
            idx,
            kind,
            vt: None,
            state: ThreadState::Parked,
            frames: Vec::new(),
            spare_frames: Vec::new(),
            br_cnt: 0,
            mon_cnt: 0,
            t_asn: 0,
            children: 0,
            native: None,
            wait_resume: None,
            unwinding: None,
            held_for_race: Vec::new(),
        }
    }

    /// True for application threads (replicated BEEs).
    pub fn is_app(&self) -> bool {
        self.kind == ThreadKind::App
    }

    /// The innermost frame.
    ///
    /// # Panics
    /// Panics if the thread has no frames (terminated or pure-system).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frames")
    }

    /// The innermost frame, mutably.
    ///
    /// # Panics
    /// Panics if the thread has no frames.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frames")
    }

    /// True once the thread has finished.
    pub fn terminated(&self) -> bool {
        self.state == ThreadState::Terminated
    }

    /// All references reachable from this thread (GC roots): locals,
    /// operand stacks, sync objects, native arguments/scratch/held
    /// monitors, and any in-flight exception.
    pub fn roots(&self) -> impl Iterator<Item = ObjRef> + '_ {
        let frame_refs = self.frames.iter().flat_map(|f| {
            f.locals
                .iter()
                .chain(f.stack.iter())
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
                .chain(f.sync_obj.iter().copied())
        });
        let native_refs = self.native.iter().flat_map(|n| {
            n.args
                .iter()
                .chain(n.scratch.iter())
                .filter_map(|v| match v {
                    Value::Ref(r) => Some(*r),
                    _ => None,
                })
                .chain(n.held.iter().copied())
                .chain(n.pending_acquire.iter().copied())
        });
        frame_refs.chain(native_refs).chain(self.unwinding.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_initializes_locals_from_args() {
        let f = Frame::new(MethodId(0), 4, vec![Value::Int(7)]);
        assert_eq!(f.locals.len(), 4);
        assert_eq!(f.locals[0], Value::Int(7));
        assert_eq!(f.locals[3], Value::Null);
    }

    #[test]
    fn roots_cover_locals_stack_and_native_state() {
        let r1 = ObjRef::from_index(1);
        let r2 = ObjRef::from_index(2);
        let r3 = ObjRef::from_index(3);
        let mut t = VmThread::new(
            ThreadIdx(0),
            ThreadKind::App,
            Some(VtPath::root()),
            MethodId(0),
            2,
            vec![Value::Ref(r1)],
        );
        t.frame_mut().stack.push(Value::Ref(r2));
        t.native = Some(NativeActivation {
            native: NativeId(0),
            phase: 0,
            args: vec![Value::Ref(r3)],
            scratch: vec![],
            held: vec![],
            pending_acquire: None,
            adopted: None,
            output_id: None,
            out_args: vec![],
        });
        let roots: Vec<ObjRef> = t.roots().collect();
        assert!(roots.contains(&r1));
        assert!(roots.contains(&r2));
        assert!(roots.contains(&r3));
    }

    #[test]
    fn system_threads_have_no_vt() {
        let t = VmThread::new_system(ThreadIdx(9), ThreadKind::GcWorker);
        assert!(!t.is_app());
        assert!(t.vt.is_none());
        assert_eq!(t.state, ThreadState::Parked);
    }
}
