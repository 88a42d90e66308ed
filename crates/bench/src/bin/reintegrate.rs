//! Checkpoint-interval sweep: epoch cadence versus peak retained-log
//! memory (the truncation win) and versus re-integration latency after a
//! backup failure (the recruitment cost) — the measured counterpart of
//! the paper's log-can-be-garbage-collected-at-a-checkpoint remark (§5).
//!
//! Run: `cargo run -p ftjvm-bench --release --bin reintegrate`

use ftjvm_bench::bench_config;
use ftjvm_core::{CheckpointPlan, FtConfig, FtJvm, LagBudget, ReplicationMode};
use ftjvm_netsim::FaultPlan;
use ftjvm_workloads as workloads;

fn main() {
    let w = workloads::db::workload();
    let base = FtConfig { lag_budget: LagBudget::Hot, ..bench_config(ReplicationMode::LockSync) };

    println!(
        "Epoch checkpointing sweep — {} (lock-sync, hot standby)\n\
         left: failure-free pair, retained-suffix/send-window peaks\n\
         right: backup killed mid-run, replacement recruited from the latest snapshot\n",
        w.name
    );
    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>10} {:>12} {:>14} {:>14}",
        "interval",
        "epochs",
        "peak-frames",
        "peak-bytes",
        "sendwin",
        "snap-bytes",
        "reintegrate",
        "degraded-win"
    );

    // u64::MAX: checkpointing armed but the threshold is never reached —
    // the retained suffix grows to the whole log (the unbounded baseline).
    for interval in [u64::MAX, 64, 32, 16, 8, 4, 2, 1] {
        let cfg = FtConfig { checkpoint_interval: Some(interval), ..base.clone() };

        let quiet = FtJvm::new(w.program.clone(), cfg.clone())
            .run_replicated()
            .expect("failure-free checkpointed pair");
        let s = quiet.primary_stats;

        let killed = FtJvm::new(w.program.clone(), cfg)
            .run_checkpointed(CheckpointPlan {
                fault: FaultPlan::None,
                kill_backup_after_units: Some(200_000),
                reintegrate: true,
            })
            .expect("kill + reintegrate run");
        assert!(killed.pair.check_no_duplicate_outputs().is_ok(), "exactly-once violated");
        let reint =
            killed.reintegration_latency().map_or_else(|| "never".into(), |t| t.to_string());
        let degraded = killed.degraded_window().map_or_else(|| "open".into(), |t| t.to_string());

        let label =
            if interval == u64::MAX { "\u{221e}".to_string() } else { interval.to_string() };
        println!(
            "{:>9} {:>8} {:>12} {:>12} {:>10} {:>12} {:>14} {:>14}",
            label,
            s.epochs_cut,
            s.peak_suffix_frames,
            s.peak_suffix_bytes,
            s.peak_send_window,
            s.snapshot_bytes,
            reint,
            degraded
        );
    }

    println!(
        "\nshorter intervals truncate the retained suffix (and the cold store)\n\
         sooner, at the cost of more frequent snapshot serialization; the\n\
         re-integration latency is dominated by failure detection plus the\n\
         snapshot transfer, so it barely moves with the interval"
    );
}
