//! Golden-log equivalence of the execution engines: the pre-decoded
//! block-dispatch interpreter — and the fused superinstruction +
//! quickening + inline-cache tier on top of it — must be
//! **observationally invisible** to the replication layer. Across all six
//! SPEC JVM98 analogs, both replication techniques, and both wire codecs,
//! the fused engine and the per-op `match` engine it is checked against
//! must ship byte-identical log frames and produce identical console
//! output; varying the block cap may shift simulated-time
//! bookkeeping (heartbeat instants) but never the logged record sequence
//! or the outputs (at `cap=1` no superinstruction ever fits the budget,
//! so cap-invariance doubles as the fusion-off equivalence proof); and a
//! snapshot cut that lands *inside* a fused region must restore and
//! finish bit-for-bit under every engine.

use ftjvm::netsim::{FaultPlan, SimTime, WireCodec};
use ftjvm::replication::codec::decode_frames;
use ftjvm::replication::records::LoggedResult;
use ftjvm::replication::Record;
use ftjvm::vm::coordinator::NoopCoordinator;
use ftjvm::vm::{DispatchEngine, SimEnv, SliceOutcome, Vm, World};
use ftjvm::workloads::{self, Workload};
use ftjvm::{FtConfig, FtJvm, NativeRegistry, ReplicationMode, VmConfig};

/// Runs the failure-free primary and returns its raw log frames plus the
/// console output it committed.
fn primary_artifacts(w: &Workload, cfg: FtConfig) -> (Vec<Vec<u8>>, Vec<String>) {
    let harness = FtJvm::new(w.program.clone(), cfg);
    let world = World::shared();
    let (_, frames, _, _) = harness
        .run_primary_to_log(&world, FaultPlan::None)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let frames = frames.iter().map(|f| f.to_vec()).collect();
    let texts = world.borrow().console_texts();
    (frames, texts)
}

/// Both engines, both techniques, both codecs, every SPEC analog: the
/// fused superinstruction tier may not change a single byte of the
/// replication log or of the committed output relative to the per-op
/// `match` baseline.
#[test]
fn fused_and_match_logs_are_byte_identical() {
    for w in workloads::spec_suite() {
        for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
            for codec in [WireCodec::Fixed, WireCodec::Compact] {
                let cfg = |engine| {
                    let mut cfg = FtConfig { mode, codec, ..FtConfig::default() };
                    cfg.vm.engine = engine;
                    cfg
                };
                let (mat_frames, mat_out) = primary_artifacts(&w, cfg(DispatchEngine::Match));
                let (frames, out) = primary_artifacts(&w, cfg(DispatchEngine::Fused));
                assert_eq!(out, mat_out, "{} {mode} {codec}: outputs differ", w.name);
                assert_eq!(
                    frames.len(),
                    mat_frames.len(),
                    "{} {mode} {codec}: frame counts differ",
                    w.name
                );
                for (i, (a, b)) in frames.iter().zip(&mat_frames).enumerate() {
                    assert_eq!(a, b, "{} {mode} {codec}: frame {i} differs", w.name);
                }
            }
        }
    }
}

/// The logged record sequence, with time-driven heartbeats stripped.
/// Heartbeats ride on simulated time, which legitimately shifts when the
/// consult cadence (and so the Misc accounting) changes with the cap.
fn logged_records(w: &Workload, cfg: FtConfig) -> (Vec<Record>, Vec<String>) {
    let harness = FtJvm::new(w.program.clone(), cfg);
    let world = World::shared();
    let (_, frames, _, _) = harness
        .run_primary_to_log(&world, FaultPlan::None)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let texts = world.borrow().console_texts();
    let records = decode_frames(frames)
        .unwrap_or_else(|e| panic!("{}: own log failed to decode: {e}", w.name))
        .into_iter()
        .filter(|r| !matches!(r, Record::Heartbeat { .. }))
        .collect();
    (records, texts)
}

/// Under thread scheduling the consult cadence *is* the Misc cost model,
/// so simulated time — and with it the values returned by clock-reading
/// natives — legitimately shifts with the cap. Mask ND payloads there;
/// every structural fact (which native, which thread, which sequence
/// number) must still match.
fn mask_nd_payloads(records: Vec<Record>) -> Vec<Record> {
    records
        .into_iter()
        .map(|r| match r {
            Record::NativeResult { t, seq, sig_hash, .. } => Record::NativeResult {
                t,
                seq,
                sig_hash,
                result: LoggedResult::Ok(None),
                out_args: Vec::new(),
            },
            other => other,
        })
        .collect()
}

/// The block cap only tunes how much work happens between progress-check
/// consults; every logged decision point (scheduling, locks, outputs)
/// must be identical from per-unit consults (`cap=1`) through unbounded
/// segments (`cap=0`). Run under the fused engine this is also the
/// fusion-off equivalence proof: at `cap=1` the remaining-budget test
/// `n + len <= remaining` fails for every superinstruction (len ≥ 2), so
/// the run executes purely quickened singles — and must still produce
/// the identical record stream. Under lock synchronization the whole
/// record stream — ND payloads included — must match byte-for-byte;
/// under thread scheduling clock-reading natives see the (intentionally)
/// cheaper Misc accounting, so their payloads are masked.
#[test]
fn block_cap_never_changes_records_or_outputs() {
    for w in workloads::spec_suite().iter().filter(|w| w.name == "jess" || w.name == "db") {
        for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
            let cfg = |cap| {
                let mut cfg = FtConfig { mode, ..FtConfig::default() };
                cfg.vm.engine = DispatchEngine::Fused;
                cfg.vm.block_cap = cap;
                cfg
            };
            let normalize = |records: Vec<Record>| match mode {
                ReplicationMode::LockSync => records,
                ReplicationMode::ThreadSched => mask_nd_payloads(records),
            };
            let (base_recs, base_out) = logged_records(w, cfg(0));
            let base_recs = normalize(base_recs);
            for cap in [1u32, 7, 64] {
                let (recs, out) = logged_records(w, cfg(cap));
                assert_eq!(out, base_out, "{} {mode} cap={cap}: outputs differ", w.name);
                assert_eq!(
                    normalize(recs),
                    base_recs,
                    "{} {mode} cap={cap}: records differ",
                    w.name
                );
            }
        }
    }
}

/// Cuts a snapshot after an odd unit budget — deliberately *inside* a
/// straight-line run, where only the decoded-PC bookkeeping pins the
/// resume point — and requires the restored VM to finish with the exact
/// output and instruction count of an uninterrupted run. Under the fused
/// engine the 37-unit budget exhausts mid-fused-region (the worker's
/// `Load; IfNot` loop head fuses, and when the superinstruction no
/// longer fits the budget the executor walks its constituent singles one
/// unit at a time), so the cut pc can rest on an interior slot of a
/// fused region; the restore must resume through those interior singles
/// and re-enter superinstruction dispatch at the next fusion start. Both
/// engines must agree on the final outputs and instruction count,
/// and inline caches (transient, per-replica) must rewarm invisibly
/// after the restore.
#[test]
fn mid_block_snapshot_restores_exactly() {
    let w = workloads::micro::sync_counter(2, 60);
    let mut finals: Vec<(Vec<String>, u64)> = Vec::new();
    for engine in [DispatchEngine::Fused, DispatchEngine::Match] {
        let cfg = VmConfig { quantum: 50, quantum_jitter: 30, engine, ..VmConfig::default() };

        let uninterrupted = {
            let world = World::shared();
            let env = SimEnv::new("p", world.clone(), SimTime::ZERO, 7);
            let mut vm =
                Vm::new(w.program.clone(), NativeRegistry::with_builtins(), env, cfg.clone())
                    .expect("vm builds");
            let report = vm.run(&mut NoopCoordinator::new()).expect("runs");
            let texts = world.borrow().console_texts();
            (texts, report.counters.instructions)
        };

        let world = World::shared();
        let env = SimEnv::new("p", world.clone(), SimTime::ZERO, 7);
        let mut vm = Vm::new(w.program.clone(), NativeRegistry::with_builtins(), env, cfg.clone())
            .expect("vm builds");
        let mut coord = NoopCoordinator::new();
        // An odd budget lands between block boundaries; retry until the VM
        // is also quiescent (no native in flight), which snapshots require.
        let blob = loop {
            match vm.run_slice(&mut coord, 37).expect("runs") {
                SliceOutcome::Budget | SliceOutcome::Paused => {
                    vm.poll_suspended(&mut coord);
                    if vm.quiescent() {
                        break vm.snapshot(&[]).expect("snapshot at quiescent point");
                    }
                }
                SliceOutcome::Completed(_) | SliceOutcome::Stopped(_) => {
                    panic!("workload finished before a mid-run cut")
                }
            }
        };
        drop(vm);

        let (mut restored, ext) = Vm::restore(
            w.program.clone(),
            NativeRegistry::with_builtins(),
            world.clone(),
            &cfg,
            &blob,
        )
        .expect("snapshot restores");
        assert!(ext.is_empty());
        let report = restored.run(&mut NoopCoordinator::new()).expect("restored run finishes");
        assert_eq!(
            world.borrow().console_texts(),
            uninterrupted.0,
            "{engine:?}: outputs diverged after restore"
        );
        assert_eq!(
            report.counters.instructions, uninterrupted.1,
            "{engine:?}: instruction count diverged after restore"
        );
        finals.push(uninterrupted);
    }
    assert_eq!(finals[0], finals[1], "fused vs match finals differ");
}
