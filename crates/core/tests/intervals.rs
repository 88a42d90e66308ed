//! Tests for interval-compressed lock synchronization, the extension the
//! paper's related work points at (DejaVu). The other one it names — a
//! backup kept updated ("would require only minor modifications") — is
//! the co-simulated hot standby, tested in the root `hot_failover` suite.

use ftjvm_core::{FtConfig, FtJvm, LockVariant, ReplicationMode};
use ftjvm_netsim::FaultPlan;
use ftjvm_vm::class::builtin;
use ftjvm_vm::program::ProgramBuilder;
use ftjvm_vm::{Cmp, MethodId, Program};
use std::sync::Arc;

fn build(f: impl FnOnce(&mut ProgramBuilder) -> MethodId) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let entry = f(&mut b);
    Arc::new(b.build(entry).expect("program verifies"))
}

fn interval_cfg(fault: FaultPlan) -> FtConfig {
    FtConfig {
        mode: ReplicationMode::LockSync,
        lock_variant: LockVariant::Intervals,
        fault,
        ..FtConfig::default()
    }
}

/// Multithreaded synchronized counter (the lock-heavy shape).
fn counter_program(b: &mut ProgramBuilder) -> MethodId {
    let print = b.import_native("sys.print_int", 1, false);
    let spawn = b.import_native("sys.spawn", 2, false);
    let yield_n = b.import_native("sys.yield", 0, false);
    let cls = b.add_class("Counter", builtin::OBJECT, 0, 2);
    let mut inc = b.method("inc", 1);
    inc.static_of(cls).synchronized();
    inc.get_static(cls, 0).push_i(1).add().put_static(cls, 0).ret_void();
    let inc = inc.build(b);
    let mut fin = b.method("finish", 1);
    fin.static_of(cls).synchronized();
    fin.get_static(cls, 1).push_i(1).add().put_static(cls, 1).ret_void();
    let fin = fin.build(b);
    let mut w = b.method("worker", 1);
    let done = w.new_label();
    w.push_i(80).store(1);
    let top = w.bind_new_label();
    w.load(1).if_not(done);
    w.push_i(0).invoke(inc);
    w.inc(1, -1).goto(top);
    w.bind(done).push_i(0).invoke(fin).ret_void();
    let w = w.build(b);
    let mut m = b.method("main", 1);
    m.push_i(0).put_static(cls, 0);
    m.push_i(0).put_static(cls, 1);
    for _ in 0..3 {
        m.push_method(w).push_i(0).invoke_native(spawn, 2);
    }
    let wait_loop = m.bind_new_label();
    let ready = m.new_label();
    m.get_static(cls, 1).push_i(3).icmp(Cmp::Eq).if_true(ready);
    m.invoke_native(yield_n, 0).goto(wait_loop);
    m.bind(ready);
    m.get_static(cls, 0).invoke_native(print, 1).ret_void();
    m.build(b)
}

#[test]
fn interval_failover_is_transparent() {
    let program = build(counter_program);
    for fault in [
        FaultPlan::AfterInstructions(500),
        FaultPlan::AfterInstructions(3000),
        FaultPlan::BeforeOutput(0),
        FaultPlan::AfterOutput(0),
    ] {
        let report = FtJvm::new(program.clone(), interval_cfg(fault))
            .run_with_failure()
            .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
        assert_eq!(report.console(), vec!["240"], "{fault:?}");
        report.check_no_duplicate_outputs().expect("exactly-once");
    }
}

#[test]
fn intervals_compress_the_lock_log_dramatically() {
    let program = build(counter_program);
    let per_acq = FtJvm::new(
        program.clone(),
        FtConfig { mode: ReplicationMode::LockSync, ..FtConfig::default() },
    )
    .run_replicated()
    .unwrap();
    let intervals = FtJvm::new(program, interval_cfg(FaultPlan::None)).run_replicated().unwrap();
    // Same acquisitions replicated, far fewer messages (and no id maps).
    assert_eq!(per_acq.primary_stats.locks_acquired, intervals.primary_stats.locks_acquired);
    assert_eq!(intervals.primary_stats.id_map_records, 0);
    assert!(intervals.primary_stats.lock_interval_records > 0);
    assert!(
        intervals.primary_stats.messages_logged() * 4 < per_acq.primary_stats.messages_logged(),
        "intervals {} vs per-acquisition {}",
        intervals.primary_stats.messages_logged(),
        per_acq.primary_stats.messages_logged()
    );
    // And less simulated communication time.
    assert!(
        intervals.primary.acct.get(ftjvm_netsim::Category::Communication)
            < per_acq.primary.acct.get(ftjvm_netsim::Category::Communication)
    );
    // Output is identical either way.
    assert_eq!(per_acq.console(), intervals.console());
}

#[test]
fn interval_sweep_failure_points() {
    let program = build(counter_program);
    for k in (100..4000).step_by(333) {
        let report = FtJvm::new(program.clone(), interval_cfg(FaultPlan::AfterInstructions(k)))
            .run_with_failure()
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(report.console(), vec!["240"], "k={k}");
    }
}

#[test]
fn interval_backup_consumes_every_interval() {
    let program = build(counter_program);
    let report = FtJvm::new(program, interval_cfg(FaultPlan::None)).run_backup_replay().unwrap();
    let b = report.backup_stats.expect("backup ran");
    assert_eq!(b.locks_acquired, report.primary_stats.locks_acquired);
}

#[test]
fn interval_detects_racy_divergence_too() {
    // The interval variant still assumes R4A: total-order replay of
    // acquisitions cannot mask unsynchronized shared accesses whose
    // outcome feeds back into the acquisition sequence.
    let program = build(|b| {
        let print = b.import_native("sys.print_int", 1, false);
        let spawn = b.import_native("sys.spawn", 2, false);
        let yield_n = b.import_native("sys.yield", 0, false);
        let cls = b.add_class("Racy", builtin::OBJECT, 0, 2);
        let fin = {
            let mut fin = b.method("finish", 1);
            fin.static_of(cls).synchronized();
            fin.get_static(cls, 1).push_i(1).add().put_static(cls, 1).ret_void();
            fin.build(b)
        };
        let guarded = {
            let mut g = b.method("guarded", 1);
            g.static_of(cls).synchronized();
            g.ret_void();
            g.build(b)
        };
        let mut w = b.method("worker", 1);
        let done = w.new_label();
        w.push_i(40).store(1);
        let top = w.bind_new_label();
        w.load(1).if_not(done);
        w.get_static(cls, 0).store(2);
        w.load(2).push_i(3).mul().push_i(7).rem().pop();
        w.load(2).push_i(1).add().put_static(cls, 0);
        let skip = w.new_label();
        w.get_static(cls, 0).push_i(2).rem().if_true(skip);
        w.push_i(0).invoke(guarded);
        w.bind(skip);
        w.inc(1, -1).goto(top);
        w.bind(done).push_i(0).invoke(fin).ret_void();
        let w = w.build(b);
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
        m.build(b)
    });
    let mut diverged = false;
    for seed in 0..20u64 {
        let mut c = interval_cfg(FaultPlan::BeforeOutput(0));
        c.primary_seed = seed;
        c.backup_seed = seed.wrapping_mul(6007) ^ 0xA5A5;
        c.vm.quantum = 13;
        c.vm.quantum_jitter = 11;
        c.vm.max_units = 3_000_000;
        c.flush_threshold = 0;
        let mut free_cfg = c.clone();
        free_cfg.fault = FaultPlan::None;
        let free = match FtJvm::new(program.clone(), free_cfg).run_replicated() {
            Ok(r) => r.console(),
            Err(_) => continue,
        };
        match FtJvm::new(program.clone(), c).run_with_failure() {
            Err(_) => {
                diverged = true;
                break;
            }
            Ok(r) if r.console() != free => {
                diverged = true;
                break;
            }
            Ok(_) => {}
        }
    }
    assert!(diverged, "R4A violations must surface under interval replay as well");
}
