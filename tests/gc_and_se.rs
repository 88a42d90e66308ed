//! Cross-crate integration: garbage-collection interactions with
//! replication (paper §4.3) and side-effect-handler behavior (§4.4).

use ftjvm::netsim::{FaultPlan, SimTime};
use ftjvm::vm::class::builtin;
use ftjvm::vm::program::ProgramBuilder;
use ftjvm::vm::{Cmp, Program};
use ftjvm::{FtConfig, FtJvm, ReplicationMode, SeRegistry, SideEffectHandler};
use std::sync::Arc;

/// A workload that allocates garbage under memory pressure while doing
/// synchronized work — GC system-thread activity interleaves with the
/// replicated application threads (the paper's system-thread interaction
/// problem, §4.2).
fn gc_pressure_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let print = b.import_native("sys.print_int", 1, false);
    let spawn = b.import_native("sys.spawn", 2, false);
    let yield_n = b.import_native("sys.yield", 0, false);
    let cls = b.add_class("G", builtin::OBJECT, 0, 2);
    let mut inc = b.method("inc", 1);
    inc.static_of(cls).synchronized();
    inc.get_static(cls, 0).push_i(1).add().put_static(cls, 0).ret_void();
    let inc = inc.build(&mut b);
    let mut fin = b.method("fin", 1);
    fin.static_of(cls).synchronized();
    fin.get_static(cls, 1).push_i(1).add().put_static(cls, 1).ret_void();
    let fin = fin.build(&mut b);
    let mut w = b.method("worker", 1);
    {
        let m = &mut w;
        let done = m.new_label();
        m.push_i(80).store(1);
        let top = m.bind_new_label();
        m.load(1).if_not(done);
        // Allocate garbage (dead immediately) then synchronized work.
        m.push_i(6).new_array().pop();
        m.new_obj(builtin::OBJECT).pop();
        m.push_i(0).invoke(inc);
        m.inc(1, -1).goto(top);
        m.bind(done);
        m.push_i(0).invoke(fin).ret_void();
    }
    let w = w.build(&mut b);
    let mut m = b.method("main", 1);
    m.push_i(0).put_static(cls, 0);
    m.push_i(0).put_static(cls, 1);
    for _ in 0..3 {
        m.push_method(w).push_i(0).invoke_native(spawn, 2);
    }
    let wait = m.bind_new_label();
    let ready = m.new_label();
    m.get_static(cls, 1).push_i(3).icmp(Cmp::Eq).if_true(ready);
    m.invoke_native(yield_n, 0).goto(wait);
    m.bind(ready);
    m.get_static(cls, 0).invoke_native(print, 1).ret_void();
    let entry = m.build(&mut b);
    Arc::new(b.build(entry).expect("verifies"))
}

#[test]
fn gc_thread_activity_does_not_break_replay() {
    // Force frequent collections: the GC system thread takes the heap lock
    // and contends with application threads, but system threads are not
    // replicated — replay must still be exact.
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        let mut cfg = FtConfig { mode, fault: FaultPlan::BeforeOutput(0), ..FtConfig::default() };
        cfg.vm.gc_threshold = 50; // heavy pressure
        let program = gc_pressure_program();
        let mut free_cfg = cfg.clone();
        free_cfg.fault = FaultPlan::None;
        let free = FtJvm::new(program.clone(), free_cfg).run_replicated().unwrap();
        assert!(free.primary.counters.gc_runs > 0, "GC must actually run");
        let failed = FtJvm::new(program, cfg).run_with_failure().unwrap();
        assert_eq!(failed.console(), vec!["240"], "{mode}");
        assert_eq!(failed.console(), free.console(), "{mode}");
    }
}

#[test]
fn gc_runs_differ_between_replicas_without_breaking_state() {
    // The backup's GC runs at different points than the primary's (its own
    // allocation timing) — the paper's point that collector behavior need
    // not be replicated as long as soft refs are strong and finalizers are
    // deterministic.
    let mut cfg = FtConfig {
        mode: ReplicationMode::ThreadSched,
        fault: FaultPlan::BeforeOutput(0),
        ..FtConfig::default()
    };
    cfg.vm.gc_threshold = 50;
    let program = gc_pressure_program();
    let failed = FtJvm::new(program, cfg).run_with_failure().unwrap();
    assert_eq!(failed.console(), vec!["240"]);
    let backup = failed.backup.as_ref().expect("backup ran");
    assert!(backup.counters.gc_runs > 0);
}

/// A user-supplied side-effect handler that counts protocol upcalls —
/// applications register their own handlers exactly like the built-ins
/// (paper: "Applications can incorporate their own handlers using the same
/// functions").
#[derive(Debug, Default)]
struct CountingHandler;

static LOG_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static RESTORE_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl SideEffectHandler for CountingHandler {
    fn register(&self) -> ftjvm::replication::SeRegistration {
        ftjvm::replication::SeRegistration { name: "counting", natives: vec!["sys.rand"] }
    }
    fn log(
        &mut self,
        _env: &ftjvm::vm::SimEnv,
        _native: &str,
        _args: &[ftjvm::vm::Value],
        _outcome: &ftjvm::vm::native::NativeOutcome,
        _output_id: Option<u64>,
    ) -> Option<bytes::Bytes> {
        LOG_CALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        None
    }
    fn restore(&mut self, _env: &mut ftjvm::vm::SimEnv) -> Result<(), ftjvm::netsim::WireError> {
        RESTORE_CALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn user_side_effect_handlers_receive_upcalls() {
    let mut b = ProgramBuilder::new();
    let print = b.import_native("sys.print_int", 1, false);
    let rand = b.import_native("sys.rand", 1, true);
    let mut m = b.method("main", 1);
    for _ in 0..5 {
        m.push_i(10).invoke_native(rand, 1).pop();
    }
    m.push_i(1).invoke_native(print, 1).ret_void();
    let entry = m.build(&mut b);
    let program = Arc::new(b.build(entry).unwrap());
    fn registry() -> SeRegistry {
        let mut r = SeRegistry::with_builtins();
        r.add(Box::new(CountingHandler));
        r
    }
    let cfg = FtConfig {
        mode: ReplicationMode::LockSync,
        fault: FaultPlan::BeforeOutput(0),
        se_factory: registry,
        ..FtConfig::default()
    };
    LOG_CALLS.store(0, std::sync::atomic::Ordering::SeqCst);
    RESTORE_CALLS.store(0, std::sync::atomic::Ordering::SeqCst);
    let report = FtJvm::new(program, cfg).run_with_failure().unwrap();
    assert!(report.crashed);
    assert_eq!(report.console(), vec!["1"]);
    // The handler's log ran at the primary for each managed native, and
    // restore ran exactly once at the backup.
    assert!(LOG_CALLS.load(std::sync::atomic::Ordering::SeqCst) >= 5);
    assert_eq!(RESTORE_CALLS.load(std::sync::atomic::Ordering::SeqCst), 1);
}

#[test]
fn detection_latency_follows_detector_parameters() {
    let mut b = ProgramBuilder::new();
    let print = b.import_native("sys.print_int", 1, false);
    let mut m = b.method("main", 1);
    m.push_i(7).invoke_native(print, 1).ret_void();
    let entry = m.build(&mut b);
    let program = Arc::new(b.build(entry).unwrap());
    let cfg = FtConfig {
        fault: FaultPlan::BeforeOutput(0),
        detector: ftjvm::netsim::FailureDetector::new(SimTime::from_millis(20), 4),
        ..FtConfig::default()
    };
    let report = FtJvm::new(program, cfg).run_with_failure().unwrap();
    // Detection is measured from observed heartbeat arrivals: the deadline
    // re-arms at the startup heartbeat and fires interval × misses = 80 ms
    // later, a sub-millisecond head start before the crash.
    assert!(report.detection_latency >= SimTime::from_millis(79));
    assert!(report.detection_latency <= SimTime::from_millis(81));
}
