//! The virtual machine executor: green-thread scheduler, monitor protocol,
//! system threads, and the top-level run loop.
//!
//! The VM multiplexes all threads onto the calling OS thread, exactly like
//! the green-threads configuration the paper evaluates. Scheduling
//! non-determinism is *injected*: quantum lengths carry jitter drawn from a
//! per-replica seeded RNG, so two replicas with different seeds interleave
//! threads differently — which is precisely the non-determinism the
//! replication layer must mask.

use crate::bytecode::MethodId;
use crate::class::Program;
use crate::coordinator::{
    Coordinator, MonitorDecision, StopReason, SwitchReason, ThreadObs, ThreadSnap,
};
use crate::decoded::DecodedProgram;
use crate::env::SimEnv;
use crate::error::VmError;
use crate::heap::Heap;
use crate::interp;
use crate::monitor::{EnterResult, MonitorTable};
use crate::native::NativeRegistry;
use crate::thread::{ThreadIdx, ThreadKind, ThreadState, VmThread};
use crate::value::{ObjRef, Value};
use crate::vtid::VtPath;
use ftjvm_netsim::{Category, CostModel, SimTime, TimeAccount};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// How the interpreter fetches and dispatches instructions.
///
/// Two engines: the fast one and its reference. Both execute through the
/// same segment executor and are byte-identical in every observable
/// respect (counters, schedules, outputs, logs); they differ only in
/// host-time cost. `Match` is the oracle the fused engine is checked
/// against and the measured baseline for its speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchEngine {
    /// Execute the fused stream: the pre-decoded form with hot
    /// digrams/trigrams fused into superinstructions, operands quickened
    /// to direct indices, and monomorphic inline caches on virtual call
    /// sites. The fast default.
    #[default]
    Fused,
    /// Re-decode each `Insn` from the original program on every fetch,
    /// unquickened and unfused — the per-unit `match`-dispatch cost the
    /// pre-decoded streams amortize.
    Match,
}

/// Tuning knobs for one VM instance.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Seed for scheduling jitter — the replica's interleaving identity.
    pub sched_seed: u64,
    /// Base quantum, in execution units.
    pub quantum: u32,
    /// Uniform extra jitter added to each quantum, `[0, jitter)`.
    pub quantum_jitter: u32,
    /// Hard heap capacity in objects (exhaustion is a fatal R0 error).
    pub heap_capacity: usize,
    /// Allocations between asynchronous GC requests.
    pub gc_threshold: usize,
    /// Run the asynchronous GC system thread.
    pub enable_gc_thread: bool,
    /// Run the finalizer system thread.
    pub enable_finalizer: bool,
    /// Collect soft references under pressure (off = the paper's
    /// treat-as-strong shortcut).
    pub collect_soft_refs: bool,
    /// Run the Eraser-style lockset race detector (verifies restriction
    /// R4A before a program is trusted to replicated lock
    /// synchronization); findings land in [`RunReport::races`].
    pub race_detect: bool,
    /// Execution-unit budget (bytecode + native phases) before the run is
    /// aborted as runaway.
    pub max_units: u64,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// Integer argument passed to `main` (by convention a scale factor).
    pub entry_arg: i64,
    /// Instruction fetch/dispatch strategy.
    pub engine: DispatchEngine,
    /// Upper bound on units per straight-line segment (0 = no extra cap;
    /// segments are still bounded by the quantum and the slice budget).
    /// `block_cap = 1` reproduces the per-unit consult cadence of the
    /// pre-segment interpreter and serves as the accounting baseline.
    pub block_cap: u32,
    /// Record executed-op single/digram/trigram frequencies into
    /// [`VmCore::profile`] (the fusion-table measurement mode of the
    /// interp bench bin; slows execution, never used replicated).
    pub profile_ops: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            sched_seed: 0x5EED,
            quantum: 400,
            quantum_jitter: 200,
            heap_capacity: 4_000_000,
            gc_threshold: 400_000,
            enable_gc_thread: true,
            enable_finalizer: true,
            collect_soft_refs: false,
            race_detect: false,
            max_units: 500_000_000,
            cost: CostModel::default(),
            entry_arg: 1,
            engine: DispatchEngine::default(),
            block_cap: 0,
            profile_ops: false,
        }
    }
}

/// Event counters for one run (the raw material of the paper's Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Bytecode instructions executed by application threads.
    pub instructions: u64,
    /// Control-flow changes executed by application threads.
    pub branches: u64,
    /// Non-recursive monitor acquisitions by application threads.
    pub monitor_acquires: u64,
    /// All monitor acquire/release events by application threads.
    pub monitor_ops: u64,
    /// Native-method invocations by application threads.
    pub native_calls: u64,
    /// Output-commit events.
    pub outputs: u64,
    /// Heap allocations.
    pub allocations: u64,
    /// Garbage collections.
    pub gc_runs: u64,
    /// Application-to-application context switches.
    pub context_switches: u64,
    /// Distinct objects whose monitor was acquired at least once
    /// (Table 2's "Objects Locked").
    pub objects_locked: u64,
    /// Application threads spawned (excluding main).
    pub spawns: u64,
}

/// Why the run loop returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All application threads terminated.
    Completed,
    /// The coordinator stopped the run (fault injection fired).
    Stopped,
}

/// Everything observable about one finished (or stopped) run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Event counters.
    pub counters: ExecCounters,
    /// Simulated-time account (per overhead category).
    pub acct: TimeAccount,
    /// Threads that died with an uncaught exception: (stable id if
    /// application thread, exception code).
    pub uncaught: Vec<(Option<VtPath>, i64)>,
    /// Data races found by the lockset detector (empty unless
    /// [`VmConfig::race_detect`] was set).
    pub races: Vec<crate::race::RaceReport>,
}

/// How many threads wait in a monitor's entry queue
/// ([`ThreadState::BlockedMonitor`]) and how many a lock-replay holds
/// back ([`ThreadState::DeferredMonitor`]). While a count is zero, a
/// monitor release or acquisition skips the scan over every thread that
/// would find nobody to wake or re-poll. Host bookkeeping only: derived
/// from thread states, never snapshotted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MonitorQueues {
    pub(crate) blocked: u32,
    pub(crate) deferred: u32,
}

impl MonitorQueues {
    /// Counts the waiting threads from their states.
    pub(crate) fn count(threads: &[VmThread]) -> Self {
        let mut q = MonitorQueues::default();
        for th in threads {
            match th.state {
                ThreadState::BlockedMonitor { .. } => q.blocked += 1,
                ThreadState::DeferredMonitor { .. } => q.deferred += 1,
                _ => {}
            }
        }
        q
    }
}

#[derive(Debug, Default)]
pub(crate) struct InternalLock {
    pub(crate) holder: Option<ThreadIdx>,
    pub(crate) waiters: Vec<ThreadIdx>,
}

/// The mutable execution state of one VM replica.
///
/// Exposed (with care) so the replication crate can snapshot counters and
/// drive recovery; ordinary users interact through [`Vm`].
#[derive(Debug)]
pub struct VmCore {
    /// The immutable program.
    pub program: Arc<Program>,
    /// Configuration.
    pub cfg: VmConfig,
    /// The heap.
    pub heap: Heap,
    /// Monitor table.
    pub monitors: MonitorTable,
    /// Static fields, per class.
    pub statics: Vec<Vec<Value>>,
    /// Per-class lock objects for synchronized statics (allocated in class
    /// order before any thread runs, hence identical across replicas).
    pub class_objects: Vec<ObjRef>,
    /// All threads ever created.
    pub threads: Vec<VmThread>,
    /// Runnable threads awaiting dispatch.
    pub run_queue: VecDeque<ThreadIdx>,
    /// The thread currently on the (virtual) CPU.
    pub current: Option<ThreadIdx>,
    /// This replica's environment.
    pub env: SimEnv,
    /// The simulated-time account.
    pub acct: TimeAccount,
    /// Event counters.
    pub counters: ExecCounters,
    /// Uncaught-exception exits.
    pub uncaught: Vec<(Option<VtPath>, i64)>,
    /// Pending finalizations.
    pub finalizer_queue: VecDeque<ObjRef>,
    /// The lockset race detector, when enabled.
    pub race: Option<crate::race::RaceDetector>,
    /// Executed-op frequency counts, when [`VmConfig::profile_ops`] is set.
    pub profile: Option<crate::profile::OpProfiler>,
    /// Monomorphic inline caches, indexed by the decode-time site ids the
    /// fused stream carries in `InvokeVirtual.imm`. Pure host-side
    /// memoization: transient, never snapshotted — a restored VM re-warms
    /// from empty (see `snapshot.rs`).
    pub(crate) ics: Vec<crate::decoded::IcEntry>,
    pub(crate) linked: Vec<u32>,
    pub(crate) quantum_left: u32,
    pub(crate) sched_rng: StdRng,
    pub(crate) heap_lock: InternalLockId,
    pub(crate) internal_locks: Vec<InternalLock>,
    pub(crate) gc_requested: bool,
    pub(crate) gc_phase: u8,
    pub(crate) gc_thread: Option<ThreadIdx>,
    pub(crate) finalizer_thread: Option<ThreadIdx>,
    pub(crate) pending_switch: Option<(ThreadSnap, SwitchReason)>,
    pub(crate) yield_requested: bool,
    pub(crate) units: u64,
    pub(crate) monitor_queues: MonitorQueues,
    /// The pre-decoded instruction streams (rebuilt by [`Vm::new`], so
    /// snapshot restore regenerates it for free — it never hits the wire).
    pub(crate) decoded: Arc<DecodedProgram>,
}

/// Identifies a VM-internal (non-Java) lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalLockId(pub(crate) usize);

/// Result of a coordinated monitor acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The monitor is now held (the thread proceeds).
    Acquired,
    /// The monitor is held by someone else; the thread is blocked.
    Blocked,
    /// The coordinator deferred the acquisition (backup replay).
    Deferred,
}

/// Builds a [`ThreadObs`] from disjoint field borrows (callers pass
/// `&core.threads` so `&mut core.acct` stays available).
pub(crate) fn obs_of(threads: &[VmThread], t: ThreadIdx) -> ThreadObs<'_> {
    let th = &threads[t.0 as usize];
    let (method, pc) = match th.frames.last() {
        Some(f) => (Some(f.method), f.pc),
        None => (None, 0),
    };
    ThreadObs {
        t,
        vt: th.vt.as_ref(),
        br_cnt: th.br_cnt,
        mon_cnt: th.mon_cnt,
        t_asn: th.t_asn,
        method,
        pc,
        in_native: th.native.is_some(),
    }
}

fn snap_of(threads: &[VmThread], monitors: &MonitorTable, t: ThreadIdx) -> ThreadSnap {
    let th = &threads[t.0 as usize];
    let (method, pc) = match th.frames.last() {
        Some(f) => (Some(f.method), f.pc),
        None => (None, 0),
    };
    let blocked_lasn = match th.state {
        ThreadState::BlockedMonitor { obj }
        | ThreadState::WaitingMonitor { obj }
        | ThreadState::DeferredMonitor { obj } => {
            monitors.monitor(obj).map(|m| m.l_asn).unwrap_or(0)
        }
        _ => 0,
    };
    ThreadSnap {
        t,
        vt: th.vt.clone(),
        br_cnt: th.br_cnt,
        mon_cnt: th.mon_cnt,
        t_asn: th.t_asn,
        method,
        pc,
        in_native: th.native.is_some(),
        blocked_lasn,
    }
}

impl VmCore {
    pub(crate) fn thread(&self, t: ThreadIdx) -> &VmThread {
        &self.threads[t.0 as usize]
    }

    pub(crate) fn thread_mut(&mut self, t: ThreadIdx) -> &mut VmThread {
        &mut self.threads[t.0 as usize]
    }

    /// True once every application thread has terminated.
    pub fn app_done(&self) -> bool {
        self.threads.iter().filter(|t| t.is_app()).all(|t| t.terminated())
    }

    /// Charges a base-category cost.
    pub(crate) fn charge_base(&mut self, d: SimTime) {
        self.acct.charge(Category::Base, d);
    }

    // ----- internal (non-Java) locks -----

    pub(crate) fn internal_try_lock(&mut self, id: InternalLockId, t: ThreadIdx) -> bool {
        let lock = &mut self.internal_locks[id.0];
        match lock.holder {
            None => {
                lock.holder = Some(t);
                true
            }
            Some(h) if h == t => true,
            Some(_) => {
                lock.waiters.push(t);
                self.thread_mut(t).state = ThreadState::BlockedInternal;
                false
            }
        }
    }

    pub(crate) fn internal_unlock(&mut self, id: InternalLockId) {
        let waiters: Vec<ThreadIdx> = {
            let lock = &mut self.internal_locks[id.0];
            lock.holder = None;
            lock.waiters.drain(..).collect()
        };
        for w in waiters {
            self.make_runnable(w);
        }
    }

    /// Moves a thread to the runnable state and the back of the run queue.
    pub(crate) fn make_runnable(&mut self, t: ThreadIdx) {
        let th = &mut self.threads[t.0 as usize];
        match th.state {
            ThreadState::Terminated => return,
            ThreadState::BlockedMonitor { .. } => self.monitor_queues.blocked -= 1,
            ThreadState::DeferredMonitor { .. } => self.monitor_queues.deferred -= 1,
            _ => {}
        }
        th.state = ThreadState::Runnable;
        if self.current != Some(t) && !self.run_queue.contains(&t) {
            self.run_queue.push_back(t);
        }
    }

    /// Wakes every thread blocked in `obj`'s (conceptual) entry queue.
    pub(crate) fn wake_blocked_on(&mut self, obj: ObjRef) {
        debug_assert_eq!(self.monitor_queues, MonitorQueues::count(&self.threads));
        if self.monitor_queues.blocked == 0 {
            return;
        }
        let blocked: Vec<ThreadIdx> = self
            .threads
            .iter()
            .filter(|th| th.state == ThreadState::BlockedMonitor { obj })
            .map(|th| th.idx)
            .collect();
        for t in blocked {
            self.make_runnable(t);
        }
    }

    /// Re-polls every lock-replay-deferred thread against the coordinator.
    pub(crate) fn poll_deferred(&mut self, coord: &mut dyn Coordinator) {
        debug_assert_eq!(self.monitor_queues, MonitorQueues::count(&self.threads));
        if self.monitor_queues.deferred == 0 {
            return;
        }
        let deferred: Vec<(ThreadIdx, ObjRef)> = self
            .threads
            .iter()
            .filter_map(|th| match th.state {
                ThreadState::DeferredMonitor { obj } => Some((th.idx, obj)),
                _ => None,
            })
            .collect();
        for (t, obj) in deferred {
            let (l_id, l_asn) = {
                let m = self.monitors.monitor_mut(obj);
                (m.l_id, m.l_asn)
            };
            let grant = {
                let obs = obs_of(&self.threads, t);
                matches!(coord.pre_monitor_acquire(&obs, obj, l_id, l_asn), MonitorDecision::Grant)
            };
            if grant {
                self.make_runnable(t);
            }
        }
    }

    /// Wakes every thread held at a native invocation by a streaming
    /// replay ([`ThreadState::DeferredNative`]). Called by the replica
    /// driver after feeding new log frames; a woken thread simply retries
    /// the invocation and re-asks [`Coordinator::native_ready`].
    pub fn wake_deferred_natives(&mut self) {
        let deferred: Vec<ThreadIdx> = self
            .threads
            .iter()
            .filter(|th| th.state == ThreadState::DeferredNative)
            .map(|th| th.idx)
            .collect();
        for t in deferred {
            self.make_runnable(t);
        }
    }

    /// The coordinated monitor-acquisition protocol for thread `t` on
    /// `obj`. `restore_recursion` is used by `wait` re-acquisition to
    /// restore the saved depth.
    pub(crate) fn acquire_monitor(
        &mut self,
        coord: &mut dyn Coordinator,
        t: ThreadIdx,
        obj: ObjRef,
        restore_recursion: Option<u32>,
    ) -> AcquireOutcome {
        let monitor_op_cost = self.cfg.cost.monitor_op;
        // One lookup for the whole step: the monitor and the thread are
        // borrowed from disjoint fields.
        let VmCore { monitors, threads, counters, acct, race, monitor_queues, .. } = self;
        let ti = t.0 as usize;
        let is_app = threads[ti].is_app();
        let m = monitors.monitor_mut(obj);
        // Recursive fast path: no coordination needed — ownership already
        // serializes.
        if m.owned_by(t) {
            m.recursion += 1;
            threads[ti].mon_cnt += 1;
            if is_app {
                counters.monitor_ops += 1;
                if race.is_some() {
                    threads[ti].held_for_race.push(obj);
                }
            }
            acct.charge(Category::Base, monitor_op_cost);
            return AcquireOutcome::Acquired;
        }
        // Coordinator gate (application threads only).
        if is_app {
            let decision = coord.pre_monitor_acquire(&obs_of(threads, t), obj, m.l_id, m.l_asn);
            if decision == MonitorDecision::Defer {
                threads[ti].state = ThreadState::DeferredMonitor { obj };
                monitor_queues.deferred += 1;
                return AcquireOutcome::Deferred;
            }
        }
        match m.try_enter(t) {
            EnterResult::Contended { .. } => {
                threads[ti].state = ThreadState::BlockedMonitor { obj };
                monitor_queues.blocked += 1;
                AcquireOutcome::Blocked
            }
            EnterResult::Acquired { recursive } => {
                debug_assert!(!recursive, "recursive path handled above");
                if let Some(depth) = restore_recursion {
                    m.recursion = depth;
                }
                threads[ti].mon_cnt += 1;
                acct.charge(Category::Base, monitor_op_cost);
                if is_app && race.is_some() {
                    let copies = restore_recursion.unwrap_or(1) as usize;
                    for _ in 0..copies {
                        threads[ti].held_for_race.push(obj);
                    }
                }
                if is_app {
                    threads[ti].t_asn += 1;
                    counters.monitor_ops += 1;
                    counters.monitor_acquires += 1;
                    m.l_asn += 1;
                    if m.l_asn == 1 {
                        counters.objects_locked += 1;
                    }
                    let obs = obs_of(threads, t);
                    if let Some(id) = coord.post_monitor_acquire(&obs, obj, m.l_id, m.l_asn, acct) {
                        m.l_id = Some(id);
                    }
                    // A turn was consumed: deferred threads may be next.
                    self.poll_deferred(coord);
                }
                AcquireOutcome::Acquired
            }
        }
    }

    /// Releases one recursion level of `obj` held by `t`.
    ///
    /// # Errors
    /// [`crate::monitor::NotOwner`] if `t` is not the owner (caller raises
    /// `IllegalMonitorStateException`).
    pub(crate) fn release_monitor(
        &mut self,
        coord: &mut dyn Coordinator,
        t: ThreadIdx,
        obj: ObjRef,
    ) -> Result<(), crate::monitor::NotOwner> {
        let freed = self.monitors.monitor_mut(obj).exit(t)?;
        self.thread_mut(t).mon_cnt += 1;
        if self.thread(t).is_app() {
            self.counters.monitor_ops += 1;
            if self.race.is_some() {
                let held = &mut self.thread_mut(t).held_for_race;
                if let Some(pos) = held.iter().rposition(|o| *o == obj) {
                    held.remove(pos);
                }
            }
        }
        let cost = self.cfg.cost.monitor_op;
        self.charge_base(cost);
        if freed {
            self.wake_blocked_on(obj);
            self.poll_deferred(coord);
        }
        Ok(())
    }

    /// Spawns a new application thread running `method(arg)`.
    pub(crate) fn spawn_app_thread(
        &mut self,
        coord: &mut dyn Coordinator,
        parent: ThreadIdx,
        method: MethodId,
        arg: Value,
    ) -> Result<ThreadIdx, VmError> {
        let m = &self.program.methods[method.0 as usize];
        if !m.is_static || m.n_args != 1 {
            return Err(VmError::Internal(format!(
                "spawn target `{}` must be a one-argument static method",
                m.name
            )));
        }
        let n_locals = m.n_locals;
        let vt = {
            let p = self.thread_mut(parent);
            let Some(parent_vt) = p.vt.as_ref() else {
                return Err(VmError::Internal("only application threads spawn".into()));
            };
            let vt = parent_vt.child(p.children);
            p.children += 1;
            vt
        };
        {
            let obs = obs_of(&self.threads, parent);
            coord.on_spawn(&obs, &vt);
        }
        let idx = ThreadIdx(self.threads.len() as u32);
        let th = VmThread::new(idx, ThreadKind::App, Some(vt), method, n_locals, vec![arg]);
        self.threads.push(th);
        self.run_queue.push_back(idx);
        self.counters.spawns += 1;
        Ok(idx)
    }

    /// Terminates the current thread (normal return or uncaught exception).
    pub(crate) fn finish_thread(
        &mut self,
        coord: &mut dyn Coordinator,
        t: ThreadIdx,
        uncaught: Option<i64>,
    ) {
        if let Some(code) = uncaught {
            let vt = self.thread(t).vt.clone();
            self.uncaught.push((vt, code));
        }
        if self.thread(t).is_app() {
            let (threads, acct) = (&self.threads, &mut self.acct);
            let obs = obs_of(threads, t);
            coord.on_thread_exit(&obs, acct);
        }
        self.thread_mut(t).state = ThreadState::Terminated;
        self.thread_mut(t).frames.clear();
        self.thread_mut(t).spare_frames = Vec::new();
        self.thread_mut(t).native = None;
    }

    /// Runs a full garbage collection (caller holds the heap lock or is the
    /// synchronous-GC intrinsic).
    pub(crate) fn run_gc(&mut self) {
        let mut roots: Vec<ObjRef> = Vec::new();
        for th in &self.threads {
            roots.extend(th.roots());
        }
        for class_statics in &self.statics {
            for v in class_statics {
                if let Value::Ref(r) = v {
                    roots.push(*r);
                }
            }
        }
        roots.extend(self.class_objects.iter().copied());
        roots.extend(self.finalizer_queue.iter().copied());
        roots.extend(self.monitors.active_objects());
        let result = self.heap.collect(roots, &self.program.classes, self.cfg.collect_soft_refs);
        let visited = (result.live + result.freed) as u64;
        let per_obj = self.cfg.cost.gc_per_object;
        self.charge_base(SimTime::from_nanos(per_obj.as_nanos() * visited));
        for obj in result.finalizable {
            self.finalizer_queue.push_back(obj);
        }
        let heap = &self.heap;
        self.monitors.retain_live(|r| heap.get(r).is_some());
        if let Some(d) = &mut self.race {
            d.retain_live(|r| heap.get(r).is_some());
        }
        self.counters.gc_runs += 1;
        self.gc_requested = false;
    }

    /// Requests asynchronous collection if allocation pressure demands it.
    pub(crate) fn maybe_request_gc(&mut self) {
        if self.heap.pressure() {
            self.gc_requested = true;
        }
    }

    fn fresh_quantum(&mut self) -> u32 {
        let jitter = if self.cfg.quantum_jitter == 0 {
            0
        } else {
            self.sched_rng.gen_range(0..self.cfg.quantum_jitter)
        };
        (self.cfg.quantum + jitter).max(1)
    }

    /// Yields the current thread with `reason`: notifies the coordinator,
    /// records the pending switch, and re-queues runnable yields.
    pub(crate) fn note_yield(&mut self, coord: &mut dyn Coordinator, reason: SwitchReason) {
        let Some(t) = self.current.take() else { return };
        let snap = snap_of(&self.threads, &self.monitors, t);
        coord.on_yield(&snap, reason, &mut self.acct);
        self.pending_switch = Some((snap, reason));
        if self.thread(t).state == ThreadState::Runnable {
            self.run_queue.push_back(t);
        }
    }

    fn wake_sleepers(&mut self) {
        let now = self.acct.now();
        let due: Vec<ThreadIdx> = self
            .threads
            .iter()
            .filter_map(|th| match th.state {
                ThreadState::Sleeping { until } if until <= now => Some(th.idx),
                _ => None,
            })
            .collect();
        for t in due {
            self.make_runnable(t);
        }
    }

    fn earliest_wake(&self) -> Option<SimTime> {
        self.threads
            .iter()
            .filter_map(|th| match th.state {
                ThreadState::Sleeping { until } => Some(until),
                _ => None,
            })
            .min()
    }

    fn unpark_system_threads(&mut self) {
        if self.gc_requested || self.heap.pressure() {
            if let Some(g) = self.gc_thread {
                if self.thread(g).state == ThreadState::Parked {
                    self.make_runnable(g);
                }
            }
        }
        if !self.finalizer_queue.is_empty() {
            if let Some(f) = self.finalizer_thread {
                if self.thread(f).state == ThreadState::Parked {
                    self.make_runnable(f);
                }
            }
        }
    }

    /// Dispatches the next thread.
    ///
    /// # Errors
    /// Returns [`VmError::Deadlock`] when no thread can ever run again.
    pub(crate) fn schedule(&mut self, coord: &mut dyn Coordinator) -> Result<Schedule, VmError> {
        let mut stall_rounds = 0u32;
        loop {
            if self.current.is_some() {
                return Ok(Schedule::Dispatched);
            }
            // A pending stop (crash injection, detected divergence) must
            // reach the run loop even if no thread is dispatchable.
            if coord.stop().is_some() {
                return Ok(Schedule::Interrupted);
            }
            self.wake_sleepers();
            self.unpark_system_threads();
            // Drop stale queue entries (terminated/blocked since enqueue).
            while let Some(&front) = self.run_queue.front() {
                if self.thread(front).state == ThreadState::Runnable {
                    break;
                }
                self.run_queue.pop_front();
            }
            if !self.run_queue.is_empty() {
                let candidates: Vec<ThreadSnap> = self
                    .run_queue
                    .iter()
                    .filter(|t| self.thread(**t).state == ThreadState::Runnable)
                    .map(|t| snap_of(&self.threads, &self.monitors, *t))
                    .collect();
                if candidates.is_empty() {
                    self.run_queue.clear();
                    continue;
                }
                let choice = match coord.pick_next(&candidates) {
                    crate::coordinator::Pick::Default => 0,
                    crate::coordinator::Pick::Choose(i) => i.min(candidates.len() - 1),
                    crate::coordinator::Pick::Idle => {
                        // The replay cannot run any candidate; wait for a
                        // sleeper or let the coordinator resolve the stall.
                        if self.idle_round(coord, &mut stall_rounds, false)? {
                            return Ok(Schedule::Paused);
                        }
                        continue;
                    }
                };
                let chosen = candidates[choice].t;
                // Remove the chosen thread from the queue (it may not be at
                // the front if the coordinator picked).
                if let Some(pos) = self.run_queue.iter().position(|x| *x == chosen) {
                    self.run_queue.remove(pos);
                }
                let to_snap = candidates[choice].clone();
                let from = self.pending_switch.take();
                let from_is_other_app =
                    from.as_ref().map(|(s, _)| s.vt.is_some() && s.t != chosen).unwrap_or(false);
                if from_is_other_app && to_snap.vt.is_some() {
                    self.counters.context_switches += 1;
                }
                {
                    let (reason, from_snap) = match &from {
                        Some((s, r)) => (*r, Some(s)),
                        None => (SwitchReason::Quantum, None),
                    };
                    coord.on_switch(from_snap, reason, &to_snap, &mut self.acct);
                }
                self.current = Some(chosen);
                self.quantum_left = self.fresh_quantum();
                return Ok(Schedule::Dispatched);
            }
            // Nothing runnable: maybe everyone is done.
            if self.app_done() {
                return Ok(Schedule::ProgramDone);
            }
            if self.idle_round(coord, &mut stall_rounds, true)? {
                return Ok(Schedule::Paused);
            }
        }
    }

    /// One round of "nothing can be dispatched": advance to the next
    /// sleeper wake-up, suspend a starved streaming replay (`Ok(true)`),
    /// give the coordinator a chance to resolve the stall, or declare
    /// deadlock.
    fn idle_round(
        &mut self,
        coord: &mut dyn Coordinator,
        stall_rounds: &mut u32,
        queue_empty: bool,
    ) -> Result<bool, VmError> {
        if let Some(wake) = self.earliest_wake() {
            self.acct.wait_until(Category::Base, wake);
            return Ok(false);
        }
        if coord.starved() {
            return Ok(true);
        }
        if *stall_rounds < 2 && coord.on_stall(&mut self.acct) {
            *stall_rounds += 1;
            self.poll_deferred(coord);
            return Ok(false);
        }
        if coord.stop().is_some() {
            // Let the run loop surface the coordinator's stop reason.
            return Ok(false);
        }
        let detail: Vec<String> = self
            .threads
            .iter()
            .filter(|t| !t.terminated())
            .map(|t| format!("{}:{:?}{}", t.idx, t.state, if queue_empty { "" } else { " (held)" }))
            .collect();
        Err(VmError::Deadlock { detail: detail.join(", ") })
    }
}

/// Outcome of a scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// A thread was dispatched.
    Dispatched,
    /// All application threads have terminated.
    ProgramDone,
    /// The coordinator requested a stop; the run loop should poll it.
    Interrupted,
    /// The coordinator is starved for external input (streaming replay).
    Paused,
}

/// Why [`Vm::run_slice`] returned.
#[derive(Debug, Clone)]
pub enum SliceOutcome {
    /// The slice's unit budget was exhausted; the program is still running.
    Budget,
    /// The coordinator is starved: it cannot make progress until the
    /// driver feeds it more input (see [`Coordinator::starved`]).
    Paused,
    /// The program ran to completion.
    Completed(RunReport),
    /// The coordinator stopped the run (fault injection fired).
    Stopped(RunReport),
}

/// A virtual machine instance: one replica.
#[derive(Debug)]
pub struct Vm {
    core: VmCore,
    natives: NativeRegistry,
}

impl Vm {
    /// Creates a VM for `program`, resolving its native imports against
    /// `natives`, with `env` as its environment.
    ///
    /// # Errors
    /// Returns [`VmError::UnlinkedNative`] / [`VmError::NativeSignature`]
    /// if an import cannot be resolved, and [`VmError::OutOfMemory`] if the
    /// heap cannot hold the per-class lock objects.
    pub fn new(
        program: Arc<Program>,
        natives: NativeRegistry,
        env: SimEnv,
        cfg: VmConfig,
    ) -> Result<Self, VmError> {
        // Link native imports.
        let mut linked = Vec::with_capacity(program.native_imports.len());
        for imp in &program.native_imports {
            let idx = natives
                .decls()
                .iter()
                .position(|d| d.name == imp.name)
                .ok_or_else(|| VmError::UnlinkedNative { name: imp.name.clone() })?;
            let decl = &natives.decls()[idx];
            if decl.argc != imp.argc || decl.returns != imp.returns {
                return Err(VmError::NativeSignature {
                    name: imp.name.clone(),
                    detail: format!(
                        "import ({}, returns={}) vs registry ({}, returns={})",
                        imp.argc, imp.returns, decl.argc, decl.returns
                    ),
                });
            }
            linked.push(idx as u32);
        }
        let mut heap = Heap::new(cfg.heap_capacity, cfg.gc_threshold);
        // Per-class lock objects, allocated in class order (deterministic
        // across replicas because the heap is empty).
        let mut class_objects = Vec::with_capacity(program.classes.len());
        for _ in &program.classes {
            class_objects.push(
                heap.alloc_obj(crate::class::builtin::OBJECT, 0)
                    .map_err(|_| VmError::OutOfMemory)?,
            );
        }
        let statics =
            program.classes.iter().map(|c| vec![Value::Null; c.n_statics as usize]).collect();
        let entry = program.method(program.entry);
        let main = VmThread::new(
            ThreadIdx(0),
            ThreadKind::App,
            Some(VtPath::root()),
            entry.id,
            entry.n_locals,
            vec![Value::Int(cfg.entry_arg)],
        );
        let mut threads = vec![main];
        let mut run_queue = VecDeque::new();
        run_queue.push_back(ThreadIdx(0));
        let mut gc_thread = None;
        let mut finalizer_thread = None;
        if cfg.enable_gc_thread {
            let idx = ThreadIdx(threads.len() as u32);
            threads.push(VmThread::new_system(idx, ThreadKind::GcWorker));
            gc_thread = Some(idx);
        }
        if cfg.enable_finalizer {
            let idx = ThreadIdx(threads.len() as u32);
            threads.push(VmThread::new_system(idx, ThreadKind::Finalizer));
            finalizer_thread = Some(idx);
        }
        let sched_rng = StdRng::seed_from_u64(cfg.sched_seed);
        let decoded = Arc::new(DecodedProgram::build(&program));
        Ok(Vm {
            core: VmCore {
                program,
                heap,
                monitors: MonitorTable::new(),
                statics,
                class_objects,
                threads,
                run_queue,
                current: None,
                env,
                acct: TimeAccount::new(),
                counters: ExecCounters::default(),
                uncaught: Vec::new(),
                finalizer_queue: VecDeque::new(),
                race: if cfg.race_detect { Some(crate::race::RaceDetector::new()) } else { None },
                profile: if cfg.profile_ops {
                    Some(crate::profile::OpProfiler::new())
                } else {
                    None
                },
                ics: vec![crate::decoded::IcEntry::default(); decoded.n_ic_sites as usize],
                linked,
                quantum_left: 0,
                sched_rng,
                heap_lock: InternalLockId(0),
                internal_locks: vec![InternalLock::default()],
                gc_requested: false,
                gc_phase: 0,
                gc_thread,
                finalizer_thread,
                pending_switch: None,
                yield_requested: false,
                units: 0,
                monitor_queues: MonitorQueues::default(),
                decoded,
                cfg,
            },
            natives: natives_into(natives),
        })
    }

    /// The execution core (counters, environment, heap).
    pub fn core(&self) -> &VmCore {
        &self.core
    }

    /// Mutable access to the core (tests and the replication harness).
    pub fn core_mut(&mut self) -> &mut VmCore {
        &mut self.core
    }

    /// Runs the program to completion (or until the coordinator stops it).
    ///
    /// # Errors
    /// Propagates fatal [`VmError`]s (deadlock, OOM, budget, divergence).
    pub fn run(&mut self, coord: &mut dyn Coordinator) -> Result<RunReport, VmError> {
        loop {
            match self.run_slice(coord, u64::MAX)? {
                SliceOutcome::Budget => continue,
                SliceOutcome::Paused => {
                    return Err(VmError::Internal(
                        "coordinator starved a non-sliced run (no driver to feed it)".into(),
                    ));
                }
                SliceOutcome::Completed(r) | SliceOutcome::Stopped(r) => return Ok(r),
            }
        }
    }

    /// Runs at most `max_units` execution units, returning between units.
    ///
    /// This is the co-simulation entry point: a replica driver alternates
    /// bounded slices of the primary and the backup on one simulated
    /// timeline. Slicing is behavior-neutral — a run advanced by repeated
    /// slices is bit-identical to one uninterrupted [`Vm::run`].
    ///
    /// # Errors
    /// Propagates fatal [`VmError`]s (deadlock, OOM, budget, divergence).
    pub fn run_slice(
        &mut self,
        coord: &mut dyn Coordinator,
        max_units: u64,
    ) -> Result<SliceOutcome, VmError> {
        let end = self.core.units.saturating_add(max_units);
        loop {
            if let Some(stop) = coord.stop() {
                return match stop {
                    StopReason::Crash => {
                        Ok(SliceOutcome::Stopped(self.report(RunOutcome::Stopped)))
                    }
                    StopReason::Error(e) => Err(e),
                };
            }
            if self.core.units >= end {
                return Ok(SliceOutcome::Budget);
            }
            match self.core.schedule(coord)? {
                Schedule::Dispatched => self.step_block(coord, end)?,
                Schedule::ProgramDone => {
                    coord.on_exit(&mut self.core.acct);
                    return Ok(SliceOutcome::Completed(self.report(RunOutcome::Completed)));
                }
                Schedule::Interrupted => continue,
                Schedule::Paused => return Ok(SliceOutcome::Paused),
            }
        }
    }

    /// Re-polls replay-suspended threads after the driver fed the
    /// coordinator new input: native-deferred threads are woken to retry
    /// their invocation, and deferred monitor acquisitions are re-asked.
    pub fn poll_suspended(&mut self, coord: &mut dyn Coordinator) {
        self.core.wake_deferred_natives();
        self.core.poll_deferred(coord);
    }

    fn report(&self, outcome: RunOutcome) -> RunReport {
        RunReport {
            outcome,
            counters: self.core.counters,
            acct: self.core.acct.clone(),
            uncaught: self.core.uncaught.clone(),
            races: self.core.race.as_ref().map(|d| d.reports.clone()).unwrap_or_default(),
        }
    }

    /// Executes one *block* of the current thread: a straight-line segment
    /// of quiet instructions under a single coordinator consult, or a
    /// single coordinated unit (monitor op, native phase, throw,
    /// system-thread step) through the legacy path.
    fn step_block(&mut self, coord: &mut dyn Coordinator, slice_end: u64) -> Result<(), VmError> {
        let t = self
            .core
            .current
            .ok_or_else(|| VmError::Internal("step_block without a dispatched thread".into()))?;
        // System threads (GC, finalizer) are not replicated: no consult, no
        // progress tracking — the legacy one-unit path, one unit at a time.
        if !self.core.thread(t).is_app() {
            self.core.units += 1;
            if self.core.units > self.core.cfg.max_units {
                return Err(VmError::InstructionBudget);
            }
            interp::exec_unit(&mut self.core, &self.natives, coord)?;
            return self.finish_step(coord, t, 1);
        }
        // Exactly one consult per block: the replay-forced preemption point
        // and the per-consult progress-tracking charge site.
        let preempt = {
            let (threads, acct) = (&self.core.threads, &mut self.core.acct);
            let obs = obs_of(threads, t);
            coord.check_preempt(&obs, acct)
        };
        if preempt {
            // A consumed dispatch: charge one unit (as the per-unit loop
            // did) so replay spinning — parked threads, streamed logs —
            // still drains the slice budget and the driver regains control.
            self.core.units += 1;
            if self.core.units > self.core.cfg.max_units {
                return Err(VmError::InstructionBudget);
            }
            self.core.note_yield(coord, SwitchReason::ReplayPoint);
            return Ok(());
        }
        // Mid-native threads always step one phase through the legacy path.
        if self.core.thread(t).native.is_some() {
            return self.run_legacy_unit(coord, t);
        }
        // The VM's own segment cap: slice budget, runaway budget, quantum,
        // configured block size.
        let mut max = slice_end
            .saturating_sub(self.core.units)
            .min(self.core.cfg.max_units.saturating_sub(self.core.units).max(1))
            .min(self.core.quantum_left.max(1) as u64);
        if self.core.cfg.block_cap > 0 {
            max = max.min(self.core.cfg.block_cap as u64);
        }
        let max = max.max(1);
        let budget = {
            let obs = obs_of(&self.core.threads, t);
            coord.quiet_budget(&obs, max)
        };
        let units = budget.units.min(max);
        let n = interp::exec_segment(&mut self.core, coord, units, budget.stop_br)?;
        if n == 0 {
            // The instruction at pc coordinates (breaker, synchronized
            // call/return, heap-locked allocation): run it as one legacy
            // unit under the consult already performed above.
            return self.run_legacy_unit(coord, t);
        }
        self.core.units += n;
        if self.core.units > self.core.cfg.max_units {
            return Err(VmError::InstructionBudget);
        }
        coord.note_units(n, &mut self.core.acct);
        self.finish_step(coord, t, n)
    }

    /// One unit through [`interp::exec_unit`] for an application thread
    /// whose `check_preempt` consult already happened this block.
    fn run_legacy_unit(
        &mut self,
        coord: &mut dyn Coordinator,
        t: ThreadIdx,
    ) -> Result<(), VmError> {
        self.core.units += 1;
        if self.core.units > self.core.cfg.max_units {
            return Err(VmError::InstructionBudget);
        }
        interp::exec_unit(&mut self.core, &self.natives, coord)?;
        coord.note_units(1, &mut self.core.acct);
        self.finish_step(coord, t, 1)
    }

    /// The post-block scheduler tail: quantum accounting for `n` consumed
    /// units and the yield/switch decision. Identical to the pre-segment
    /// per-unit tail when `n == 1`.
    fn finish_step(
        &mut self,
        coord: &mut dyn Coordinator,
        t: ThreadIdx,
        n: u64,
    ) -> Result<(), VmError> {
        // The block may have blocked, terminated, or otherwise changed state.
        if self.core.current != Some(t) {
            return Ok(());
        }
        let reason = match self.core.thread(t).state {
            ThreadState::Runnable => {
                if self.core.yield_requested {
                    self.core.yield_requested = false;
                    Some(SwitchReason::Yield)
                } else if (self.core.quantum_left as u64) <= n {
                    let allow = {
                        let obs = obs_of(&self.core.threads, t);
                        coord.allow_quantum_preempt(&obs)
                    };
                    if allow {
                        Some(SwitchReason::Quantum)
                    } else {
                        self.core.quantum_left = self.core.fresh_quantum();
                        None
                    }
                } else {
                    self.core.quantum_left -= n as u32;
                    None
                }
            }
            ThreadState::Terminated => Some(SwitchReason::Exit),
            ThreadState::BlockedMonitor { .. } => Some(SwitchReason::BlockedMonitor),
            ThreadState::WaitingMonitor { .. } => Some(SwitchReason::Waiting),
            ThreadState::DeferredMonitor { .. } => Some(SwitchReason::Deferred),
            ThreadState::DeferredNative => Some(SwitchReason::DeferredNative),
            ThreadState::BlockedInternal => Some(SwitchReason::Internal),
            ThreadState::Sleeping { .. } => Some(SwitchReason::Sleep),
            ThreadState::Parked => {
                // System thread went idle; not a replicated event.
                self.core.current = None;
                self.core.pending_switch = None;
                None
            }
        };
        if let Some(reason) = reason {
            self.core.note_yield(coord, reason);
        }
        Ok(())
    }
}

// `NativeRegistry` is consumed by value; this indirection exists so future
// shared registries can be swapped in without changing `Vm::new`'s
// signature.
fn natives_into(n: NativeRegistry) -> NativeRegistry {
    n
}
