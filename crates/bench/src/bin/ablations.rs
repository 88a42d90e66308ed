//! Ablations for the design choices DESIGN.md calls out:
//!
//! * **Ablation 1 — interval compression** (related-work extension):
//!   per-acquisition vs interval-compressed lock logs, per benchmark —
//!   reproducing the paper's observation that mtrt's 700 k acquisitions
//!   collapse to ~56 intervals ("four orders of magnitude fewer events").
//! * **Ablation 2 — flush policy**: log-buffer threshold vs communication
//!   overhead vs the record window lost at a crash.
//! * **Ablation 4 — timeslice**: quantum length vs schedule records
//!   transmitted (TS).
//! * **Ablation 5 — wire codec**: fixed per-record messages vs batched
//!   delta/varint frames.
//!
//! There is no Ablation 3 (warm vs cold backup): the `failover` binary
//! measures the co-simulated hot standby against the cold backup instead.
//!
//! Run: `cargo run -p ftjvm-bench --release --bin ablations`

use ftjvm_bench::bench_config;
use ftjvm_core::{FtJvm, LockVariant, ReplicationMode, WireCodec};
use ftjvm_netsim::{Category, FaultPlan};

fn main() {
    interval_compression();
    flush_policy();
    timeslice();
    wire_codec();
}

fn interval_compression() {
    println!("== Ablation 1: interval-compressed lock synchronization ==");
    println!(
        "{:10} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "benchmark", "acq records", "intervals", "ratio", "comm (per)", "comm (int)"
    );
    for w in ftjvm_workloads::spec_suite() {
        let per = FtJvm::new(w.program.clone(), bench_config(ReplicationMode::LockSync))
            .run_replicated()
            .expect("per-acquisition runs");
        let mut cfg = bench_config(ReplicationMode::LockSync);
        cfg.lock_variant = LockVariant::Intervals;
        let int = FtJvm::new(w.program.clone(), cfg).run_replicated().expect("intervals run");
        let acq = per.primary_stats.lock_acq_records.max(1);
        let ints = int.primary_stats.lock_interval_records.max(1);
        println!(
            "{:10} {:>12} {:>12} {:>7.0}x {:>12} {:>12}",
            w.name,
            per.primary_stats.lock_acq_records,
            int.primary_stats.lock_interval_records,
            acq as f64 / ints as f64,
            per.primary.acct.get(Category::Communication).to_string(),
            int.primary.acct.get(Category::Communication).to_string(),
        );
    }
    println!("(paper, full scale: mtrt 700258 acquisitions vs 56 intervals)\n");
}

fn flush_policy() {
    println!("== Ablation 2: log-buffer flush threshold (db, lock-sync) ==");
    println!(
        "{:>10} {:>10} {:>14} {:>16}",
        "threshold", "flushes", "comm overhead", "records lost @crash"
    );
    let w = ftjvm_workloads::db::workload();
    for threshold in [0usize, 1 << 10, 1 << 14, 1 << 16] {
        let mut cfg = bench_config(ReplicationMode::LockSync);
        cfg.flush_threshold = threshold;
        let free = FtJvm::new(w.program.clone(), cfg.clone()).run_replicated().expect("runs");
        let base = FtJvm::new(w.program.clone(), cfg.clone())
            .run_unreplicated()
            .expect("base")
            .0
            .acct
            .total();
        let comm = free.primary.acct.get(Category::Communication);
        // Crash mid-run: how many logged records never reached the backup?
        let mut crash_cfg = cfg;
        crash_cfg.fault = FaultPlan::AfterInstructions(1_000_000);
        let crash = FtJvm::new(w.program.clone(), crash_cfg).run_with_failure().expect("crash run");
        let lost =
            crash.primary_stats.messages_logged().saturating_sub(crash.channel.messages_sent);
        println!(
            "{:>10} {:>10} {:>13.0}% {:>16}",
            threshold,
            free.primary_stats.flushes,
            100.0 * comm.as_nanos() as f64 / base.as_nanos() as f64,
            lost
        );
    }
    println!("(smaller buffers lose fewer records at a crash but flush more often)\n");
}

fn timeslice() {
    println!("== Ablation 4: scheduler timeslice vs schedule records (mtrt, TS) ==");
    println!("{:>10} {:>14} {:>14}", "quantum", "sched records", "TS overhead");
    let w = ftjvm_workloads::mtrt::workload();
    for quantum in [2_000u32, 8_000, 40_000, 160_000] {
        let mut cfg = bench_config(ReplicationMode::ThreadSched);
        cfg.vm.quantum = quantum;
        cfg.vm.quantum_jitter = quantum / 2;
        let (base, _) =
            FtJvm::new(w.program.clone(), cfg.clone()).run_unreplicated().expect("base");
        let r = FtJvm::new(w.program.clone(), cfg).run_replicated().expect("runs");
        println!(
            "{:>10} {:>14} {:>13.2}x",
            quantum,
            r.primary_stats.sched_records,
            r.primary.acct.total().as_nanos() as f64 / base.acct.total().as_nanos() as f64
        );
    }
    println!("(longer timeslices transmit fewer records; bookkeeping cost stays)\n");
}

fn wire_codec() {
    println!("== Ablation 5: wire codec (fixed per-record vs batched delta/varint) ==");
    println!(
        "{:10} {:>7} {:>12} {:>12} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "benchmark",
        "codec",
        "bytes",
        "messages",
        "msg x",
        "B/record",
        "comm",
        "comm shr",
        "pessim"
    );
    for w in ftjvm_workloads::spec_suite() {
        let (base, _) = FtJvm::new(w.program.clone(), bench_config(ReplicationMode::LockSync))
            .run_unreplicated()
            .expect("base");
        let base = base.acct.total();
        let mut fixed_msgs = 0u64;
        for codec in [WireCodec::Fixed, WireCodec::Compact] {
            let mut cfg = bench_config(ReplicationMode::LockSync);
            cfg.codec = codec;
            let r = FtJvm::new(w.program.clone(), cfg).run_replicated().expect("runs");
            if codec == WireCodec::Fixed {
                fixed_msgs = r.channel.messages_sent;
            }
            let records = r.primary_stats.messages_logged().max(1);
            println!(
                "{:10} {:>7} {:>12} {:>12} {:>6.0}x {:>10} {:>10} {:>9.1}% {:>10}",
                w.name,
                codec.to_string(),
                r.primary_stats.bytes_logged,
                r.channel.messages_sent,
                fixed_msgs as f64 / r.channel.messages_sent.max(1) as f64,
                r.primary_stats.bytes_logged / records,
                r.primary.acct.get(Category::Communication).to_string(),
                100.0 * r.primary.acct.get(Category::Communication).as_nanos() as f64
                    / base.as_nanos() as f64,
                r.primary.acct.get(Category::Pessimistic).to_string(),
            );
        }
    }
    println!(
        "(one batch frame per flush amortizes the per-message cost; delta/varint\n\
 bodies shrink bytes-on-wire — \"comm shr\" is the Fig 3 communication share)\n"
    );
}
