//! Microbenchmark: raw interpreter throughput (wall-clock), with and
//! without the per-instruction thread-scheduling bookkeeping — the
//! real-time analog of the paper's "Misc" overhead — plus the dispatch
//! comparison (pre-decoded block engine vs per-unit `match` fetch), a
//! block-size sweep showing where segment fusion stops paying, and the
//! superinstruction ablation (fused vs plain decoded on every SPEC
//! analog).

use criterion::{criterion_group, criterion_main, Criterion};
use ftjvm_core::{FtConfig, FtJvm, ReplicationMode};
use ftjvm_netsim::FaultPlan;
use ftjvm_vm::{DispatchEngine, World};
use std::hint::black_box;

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    group.sample_size(20);
    let w = ftjvm_workloads::micro::arith_loop(20_000);
    let harness = FtJvm::new(w.program.clone(), FtConfig::default());
    group.bench_function("baseline", |b| {
        b.iter(|| {
            let (report, _) = harness.run_unreplicated().expect("runs");
            black_box(report.counters.instructions)
        })
    });
    let ts = FtJvm::new(
        w.program.clone(),
        FtConfig { mode: ReplicationMode::ThreadSched, ..FtConfig::default() },
    );
    group.bench_function("ts-primary", |b| {
        b.iter(|| {
            let report = ts.run_replicated().expect("runs");
            black_box(report.primary.counters.instructions)
        })
    });
    let lock = FtJvm::new(
        w.program.clone(),
        FtConfig { mode: ReplicationMode::LockSync, ..FtConfig::default() },
    );
    group.bench_function("lock-primary", |b| {
        b.iter(|| {
            let report = lock.run_replicated().expect("runs");
            black_box(report.primary.counters.instructions)
        })
    });
    // Ablation: the Eraser-style race detector's wall-clock cost on the
    // same workload (it hooks every shared-memory access).
    let mut detect_cfg = FtConfig::default();
    detect_cfg.vm.race_detect = true;
    let detecting = FtJvm::new(w.program.clone(), detect_cfg);
    group.bench_function("baseline+race-detector", |b| {
        b.iter(|| {
            let (report, _) = detecting.run_unreplicated().expect("runs");
            black_box(report.counters.instructions)
        })
    });
    group.finish();
}

/// Decoded block dispatch vs per-unit `match` fetch on the same workload,
/// both engines crossed with the per-unit consult cadence (`cap1`) that
/// reproduces the pre-segment interpreter. `match-cap1` is the "before"
/// column; `decoded` is the shipped configuration.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(15);
    let w = ftjvm_workloads::micro::arith_loop(20_000);
    let cases = [
        ("fused", DispatchEngine::Fused, 0u32),
        ("decoded", DispatchEngine::Decoded, 0),
        ("decoded-cap1", DispatchEngine::Decoded, 1),
        ("match", DispatchEngine::Match, 0),
        ("match-cap1", DispatchEngine::Match, 1),
    ];
    for (label, engine, cap) in cases {
        let mut cfg = FtConfig::default();
        cfg.vm.engine = engine;
        cfg.vm.block_cap = cap;
        let harness = FtJvm::new(w.program.clone(), cfg);
        group.bench_function(label, |b| {
            b.iter(|| {
                let (report, _) = harness.run_unreplicated().expect("runs");
                black_box(report.counters.instructions)
            })
        });
    }
    group.finish();
}

/// Block-size sweep under the thread-scheduling primary (where each block
/// boundary costs a progress-tracking consult): throughput from the
/// per-unit cadence (`cap=1`) up to unbounded segments (`cap=0`).
fn bench_block_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("block-cap");
    group.sample_size(15);
    let w = ftjvm_workloads::micro::arith_loop(20_000);
    for cap in [1u32, 4, 16, 64, 256, 0] {
        let mut cfg = FtConfig { mode: ReplicationMode::ThreadSched, ..FtConfig::default() };
        cfg.vm.block_cap = cap;
        let harness = FtJvm::new(w.program.clone(), cfg);
        let label = if cap == 0 {
            "ts-primary/unbounded".to_string()
        } else {
            format!("ts-primary/cap{cap}")
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let world = World::shared();
                let (report, _, _, _) =
                    harness.run_primary_to_log(&world, FaultPlan::None).expect("runs");
                black_box(report.counters.instructions)
            })
        });
    }
    group.finish();
}

/// Superinstruction ablation: each SPEC analog under the fused engine
/// (superinstructions + quickening + inline caches) vs the plain decoded
/// engine — the per-workload wall-clock gain the decode-time optimisation
/// tier buys. Unbounded cap for both, so the only variable is the
/// dispatch stream.
fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion");
    group.sample_size(10);
    for w in ftjvm_workloads::spec_suite() {
        for (label, engine) in
            [("fused", DispatchEngine::Fused), ("decoded", DispatchEngine::Decoded)]
        {
            let mut cfg = FtConfig::default();
            cfg.vm.engine = engine;
            let harness = FtJvm::new(w.program.clone(), cfg);
            group.bench_function(format!("{}/{label}", w.name), |b| {
                b.iter(|| {
                    let (report, _) = harness.run_unreplicated().expect("runs");
                    black_box(report.counters.instructions)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_interpreter, bench_dispatch, bench_block_cap, bench_fusion);
criterion_main!(benches);
