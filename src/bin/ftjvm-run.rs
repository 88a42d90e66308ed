//! Command-line runner: execute a SPEC analog (or micro workload) under a
//! chosen replication technique, optionally killing the primary, and print
//! a full report.
//!
//! ```text
//! cargo run --release --bin ftjvm-run -- db --mode lock --crash-at 500000
//! cargo run --release --bin ftjvm-run -- mtrt --mode ts
//! cargo run --release --bin ftjvm-run -- jack --mode lock --variant intervals
//! cargo run --release --bin ftjvm-run -- compress --baseline
//! ```

use ftjvm::netsim::{Category, FaultPlan, SimTime};
use ftjvm::replication::{run_fleet, FleetConfig, RouterMode};
use ftjvm::workloads::Workload;
use ftjvm::{FtConfig, FtJvm, GroupConfig, LagBudget, NetFaultPlan, ReplicationMode};

/// Parses a `--threads` operand: a count, or `max` for host parallelism.
fn parse_threads(s: Option<&String>) -> usize {
    match s.map(String::as_str) {
        Some("max") => std::thread::available_parallelism().map_or(1, usize::from),
        Some(n) => n.parse().unwrap_or_else(|_| usage()),
        None => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ftjvm-run <workload> [options]\n\
         \n\
         workloads: jess jack compress db mpegaudio mtrt\n\
         \n\
         options:\n\
           --mode lock|ts        replication technique (default lock)\n\
           --variant records|intervals   lock-record encoding, --mode lock only (default records)\n\
           --codec fixed|compact wire codec (default fixed)\n\
           --crash-at <units>    kill the primary after N execution units\n\
           --crash-before-output <n>  kill in output n's uncertain window\n\
           --backup cold|hot     cold: store the log, replay at failover (default);\n\
                                 hot: co-simulated standby streams the log and\n\
                                 replays only the unconsumed suffix at failover\n\
           --checkpoint-interval <n>  cut an epoch snapshot every n flushes:\n\
                                 the acked prefix is truncated on both sides,\n\
                                 bounding log memory to one epoch\n\
           --kill-backup <units> fail-stop the BACKUP once the primary has run\n\
                                 n units (implies a hot standby; requires\n\
                                 --checkpoint-interval); the primary detects it\n\
                                 and keeps executing in degraded mode\n\
           --reintegrate         after the backup dies, recruit a replacement\n\
                                 standby from the latest snapshot plus the live\n\
                                 suffix (requires --checkpoint-interval)\n\
           --group-size <k>      replicate across a k-replica group with\n\
                                 rank-ordered promotion (2 is the hot pair;\n\
                                 requires --checkpoint-interval; crash flags\n\
                                 become the group's first primary kill)\n\
           --vote-quorum <q>     BFT-lite: release outputs only once q digest\n\
                                 votes match (requires --group-size)\n\
           --seed <n>            primary scheduler seed (default 11)\n\
           --net-fault <spec>    arm the lossy link; spec is comma-separated\n\
                                 k=v pairs: drop/dup/corrupt/reorder (probabilities),\n\
                                 jitter=<micros>, drop-at/dup-at/corrupt-at=<i;j;..>\n\
                                 (pinned attempt indices), partition=<start:end>\n\
                                 e.g. --net-fault drop=0.1,dup=0.05,jitter=300\n\
           --net-seed <n>        seed for the fault plan's coin flips (default 0)\n\
           --baseline            run unreplicated only\n\
           --disasm              print the program listing instead of running\n\
           --disasm-fused        print the decoded listing the fused engine runs\n\
                                 (superinstructions expanded, quickened operands)\n\
           --dump-log <n>        print the first n log records instead of running\n\
         \n\
         fleet mode (no workload argument):\n\
           --fleet <n>           run n replicated pairs on one event-loop\n\
                                 timeline and report aggregate SLOs\n\
           --fleet-seed <n>      fleet master seed (default 0xF1EE7)\n\
           --racks <n>           failure domains (default 8)\n\
           --crash-per-mille <n> per-pair primary crash probability (default 150)\n\
           --kill-per-mille <n>  per-pair backup kill probability (default 100)\n\
           --partition-rack <n>  correlated scenario: kill every backup in rack n\n\
           --no-reintegrate      do not recruit replacement standbys\n\
           --no-shared           give every pair its own uncontended link\n\
           --closed-loop <us>    closed-loop clients with this think time\n\
                                 (default: open loop, 50us interarrival)\n\
           --interarrival <us>   open-loop request interarrival per pair\n\
           --stagger <us>        start-time stagger between pair ids (default 200)\n\
           --group-size <k>      run every fleet slot as a k-replica group\n\
           --vote-quorum <q>     digest vote quorum for fleet group slots\n\
           --threads <n|max>     schedule slots across n worker threads; the\n\
                                 report is byte-identical for every value\n\
                                 (default 1; max = host parallelism)"
    );
    std::process::exit(2)
}

/// Parses fleet-mode flags, runs the fleet, prints the SLO report.
fn fleet_main(args: &[String]) -> ! {
    let mut cfg = FleetConfig::default();
    let mut i = 0;
    let num = |args: &[String], i: &mut usize| -> u64 {
        *i += 1;
        args.get(*i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--fleet" => cfg.pairs = num(args, &mut i) as u32,
            "--fleet-seed" => cfg.seed = num(args, &mut i),
            "--racks" => cfg.racks = num(args, &mut i) as u32,
            "--crash-per-mille" => cfg.crash_per_mille = num(args, &mut i) as u32,
            "--kill-per-mille" => cfg.kill_per_mille = num(args, &mut i) as u32,
            "--partition-rack" => cfg.partition_rack = Some(num(args, &mut i) as u32),
            "--no-reintegrate" => cfg.reintegrate = false,
            "--no-shared" => cfg.shared_per_byte = None,
            "--closed-loop" => {
                cfg.router = RouterMode::Closed { think: SimTime::from_micros(num(args, &mut i)) };
            }
            "--interarrival" => {
                cfg.router =
                    RouterMode::Open { interarrival: SimTime::from_micros(num(args, &mut i)) };
            }
            "--stagger" => cfg.stagger = SimTime::from_micros(num(args, &mut i)),
            "--group-size" => cfg.group_size = Some(num(args, &mut i) as usize),
            "--vote-quorum" => cfg.vote_quorum = Some(num(args, &mut i) as u32),
            "--threads" => {
                i += 1;
                cfg.threads = parse_threads(args.get(i));
            }
            _ => usage(),
        }
        i += 1;
    }
    if cfg.pairs == 0 {
        usage();
    }
    let report = run_fleet(&cfg).unwrap_or_else(|e| fail("fleet run failed", &e));
    println!(
        "fleet: {} pairs, {} racks, seed {:#x}, {} trunk",
        report.pairs,
        cfg.racks,
        cfg.seed,
        if cfg.shared_per_byte.is_some() { "shared" } else { "no" },
    );
    println!(
        "  completed {} / {}   divergent {}   lost (beyond 1-fault model) {}",
        report.completed, report.pairs, report.divergent, report.lost
    );
    println!(
        "  failovers absorbed {}   backups killed {}   degraded entries {}   reintegrated {}",
        report.failovers_absorbed,
        report.backups_killed,
        report.degraded_entries,
        report.reintegrated
    );
    println!(
        "  requests {} served / {} issued   backlog peak {}",
        report.served_requests, report.total_requests, report.backlog_peak
    );
    println!(
        "  output-commit latency p50 {} p99 {} max {}",
        report.commit_p50, report.commit_p99, report.commit_max
    );
    println!(
        "  makespan {}   failovers/sec {:.2}   peak suffix {} frames   peak backup pending {}",
        report.makespan,
        report.failovers_per_sec,
        report.peak_suffix_frames,
        report.peak_backup_pending
    );
    if let Some(s) = &report.shared {
        println!(
            "  trunk: {} frames, {} bytes, queue total {} (peak {}), busy {}, oversubscribed {}",
            s.frames, s.bytes, s.queue_total, s.queue_peak, s.busy, s.oversubscribed
        );
    }
    let p = &report.pool;
    let slots: Vec<String> = p.slots_per_worker.iter().map(u32::to_string).collect();
    println!(
        "  pool: {} threads, slots/worker [{}], {} windows, {} barrier waits, {} trunk intervals merged",
        p.threads,
        slots.join(" "),
        p.windows,
        p.barrier_waits,
        p.merged_intervals,
    );
    let ok = report.all_verified();
    if !ok {
        // Any divergent pair is a tool failure: print its failure
        // timeline so the run is diagnosable, and exit nonzero.
        for o in
            report.outcomes.iter().filter(|o| o.error.is_some() || (o.survived && !o.output_ok))
        {
            eprintln!(
                "  pair {:4} rack {}: DIVERGED{}",
                o.pair_id,
                o.rack,
                o.error.as_deref().map(|e| format!(" ({e})")).unwrap_or_default()
            );
            if o.timeline.is_empty() {
                eprintln!(
                    "    crashed={} degraded={} reintegrated={} served={}/{}",
                    o.crashed, o.degraded, o.reintegrated, o.served, o.requests
                );
            }
            for moment in &o.timeline {
                eprintln!("    {moment}");
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 })
}

fn workload_by_name(name: &str) -> Option<Workload> {
    ftjvm::workloads::spec_suite().into_iter().find(|w| w.name == name)
}

/// Runs the workload on a k-replica group, prints the group report
/// (reigns, failovers, timeline), and exits — nonzero on an incomplete
/// group or an exactly-once violation.
fn group_main(
    w: &Workload,
    cfg: FtConfig,
    size: usize,
    vote_quorum: Option<u32>,
    kill_standby: Option<u64>,
    reintegrate: bool,
) -> ! {
    let mut cfg = cfg;
    // The group schedules kills itself: the single-pair crash flag
    // becomes the chain's first kill.
    let kills = if cfg.fault.is_armed() { vec![cfg.fault] } else { Vec::new() };
    cfg.fault = FaultPlan::None;
    let gcfg = GroupConfig {
        size,
        vote_quorum,
        kills,
        // The lowest-priority standby: the only one of a group of two.
        kill_standby_after_units: kill_standby.map(|units| (size.saturating_sub(2), units)),
        // Groups re-recruit by default; `--reintegrate` is implied.
        reintegrate: reintegrate || GroupConfig::default().reintegrate,
        ..GroupConfig::default()
    };
    let report = FtJvm::new(w.program.clone(), cfg.clone())
        .run_group(gcfg)
        .unwrap_or_else(|e| fail("group run failed (divergence or corruption)", &e));
    println!("\ngroup [{} / {} / {}]: {} replicas", cfg.mode, cfg.lock_variant, cfg.codec, size);
    match vote_quorum {
        Some(q) => println!("  vote quorum: {q} matching digests gate every output"),
        None => println!("  vote quorum: off"),
    }
    println!(
        "  completed {}   survivor m{}   failovers {}   evictions {}",
        if report.completed { "yes" } else { "NO" },
        report.survivor,
        report.failovers.len(),
        report.evictions
    );
    for (i, r) in report.reigns.iter().enumerate() {
        println!(
            "  reign {i}: m{} — {} commits, {} flushes, {} epochs cut, {} votes sent",
            r.member,
            r.stats.output_commits,
            r.stats.flushes,
            r.stats.epochs_cut,
            r.stats.votes_sent
        );
    }
    for f in &report.failovers {
        println!(
            "  failover (reign {}): m{} promoted at {} — detection {}, suffix replay {}{}",
            f.reign,
            f.promoted,
            f.crash_at,
            f.detection_latency,
            f.suffix_replay,
            if f.demoted_by_vote { " (vote demotion)" } else { "" }
        );
    }
    println!("  timeline:");
    for m in &report.timeline {
        println!("    {m}");
    }
    println!("  console ({} lines):", report.console().len());
    for line in report.console().iter().take(12) {
        println!("    {line}");
    }
    if report.console().len() > 12 {
        println!("    … {} more", report.console().len() - 12);
    }
    if let Err(id) = report.check_no_duplicate_outputs() {
        fail("exactly-once violated", &format!("output {id} duplicated"));
    }
    std::process::exit(if report.completed { 0 } else { 1 })
}

/// A run that diverged, corrupted state, or violated exactly-once is a
/// tool failure, not a panic: report and exit nonzero.
fn fail(what: &str, detail: &dyn std::fmt::Display) -> ! {
    eprintln!("ftjvm-run: {what}: {detail}");
    std::process::exit(1)
}

fn parse_net_fault(spec: &str) -> Result<NetFaultPlan, String> {
    let mut plan = NetFaultPlan::default();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part.split_once('=').ok_or_else(|| format!("`{part}`: expected k=v"))?;
        let prob = || v.parse::<f64>().map_err(|_| format!("`{part}`: bad probability"));
        let indices = || {
            v.split(';')
                .map(|n| n.parse::<u64>().map_err(|_| format!("`{part}`: bad index")))
                .collect::<Result<Vec<u64>, String>>()
        };
        match k {
            "drop" => plan.drop = prob()?,
            "dup" => plan.duplicate = prob()?,
            "corrupt" => plan.corrupt = prob()?,
            "reorder" => plan.reorder = prob()?,
            "jitter" => {
                let us = v.parse::<u64>().map_err(|_| format!("`{part}`: bad microseconds"))?;
                plan.jitter = SimTime::from_micros(us);
            }
            "drop-at" => plan.drop_at = indices()?,
            "dup-at" => plan.duplicate_at = indices()?,
            "corrupt-at" => plan.corrupt_at = indices()?,
            "partition" => {
                let (a, b) =
                    v.split_once(':').ok_or_else(|| format!("`{part}`: expected start:end"))?;
                let a = a.parse().map_err(|_| format!("`{part}`: bad start"))?;
                let b = b.parse().map_err(|_| format!("`{part}`: bad end"))?;
                plan.partitions.push((a, b));
            }
            _ => return Err(format!("unknown key `{k}`")),
        }
    }
    if plan.reorder > 0.0 && plan.jitter == SimTime::ZERO {
        plan.jitter = SimTime::from_micros(300);
    }
    Ok(plan)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else { usage() };
    if name == "--fleet" {
        fleet_main(&args);
    }
    let Some(w) = workload_by_name(name) else {
        eprintln!("unknown workload `{name}`");
        usage()
    };
    let mut cfg = FtConfig::default();
    let mut baseline = false;
    let mut disasm = false;
    let mut disasm_fused = false;
    let mut dump_log: Option<usize> = None;
    let mut kill_backup: Option<u64> = None;
    let mut reintegrate = false;
    let mut group_size: Option<usize> = None;
    let mut vote_quorum: Option<u32> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                i += 1;
                cfg.mode = match args.get(i).map(String::as_str) {
                    Some("lock") => ReplicationMode::LockSync,
                    Some("ts") => ReplicationMode::ThreadSched,
                    _ => usage(),
                };
            }
            "--variant" => {
                i += 1;
                cfg.lock_variant = match args.get(i).map(String::as_str) {
                    Some("records") => ftjvm::LockVariant::PerAcquisition,
                    Some("intervals") => ftjvm::LockVariant::Intervals,
                    _ => usage(),
                };
            }
            "--codec" => {
                i += 1;
                cfg.codec = match args.get(i).map(String::as_str) {
                    Some("fixed") => ftjvm::WireCodec::Fixed,
                    Some("compact") => ftjvm::WireCodec::Compact,
                    _ => usage(),
                };
            }
            "--crash-at" => {
                i += 1;
                let n = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                cfg.fault = FaultPlan::AfterInstructions(n);
            }
            "--crash-before-output" => {
                i += 1;
                let n = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                cfg.fault = FaultPlan::BeforeOutput(n);
            }
            "--backup" => {
                i += 1;
                cfg.lag_budget = match args.get(i).map(String::as_str) {
                    Some("cold") => LagBudget::Cold,
                    Some("hot") => LagBudget::Hot,
                    _ => usage(),
                };
            }
            "--checkpoint-interval" => {
                i += 1;
                let n = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                cfg.checkpoint_interval = Some(n);
            }
            "--kill-backup" => {
                i += 1;
                kill_backup =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--reintegrate" => reintegrate = true,
            "--group-size" => {
                i += 1;
                group_size =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--vote-quorum" => {
                i += 1;
                vote_quorum =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                cfg.primary_seed =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--net-fault" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| usage());
                let seed = cfg.net_fault.seed;
                cfg.net_fault = parse_net_fault(spec).unwrap_or_else(|e| {
                    eprintln!("bad --net-fault spec: {e}");
                    usage()
                });
                cfg.net_fault.seed = seed;
            }
            "--net-seed" => {
                i += 1;
                cfg.net_fault.seed =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--baseline" => baseline = true,
            "--disasm" => disasm = true,
            "--disasm-fused" => disasm_fused = true,
            "--dump-log" => {
                i += 1;
                dump_log =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    if cfg.mode == ReplicationMode::ThreadSched && cfg.lock_variant == ftjvm::LockVariant::Intervals
    {
        eprintln!(
            "--variant intervals requires --mode lock (thread scheduling logs no lock records)"
        );
        usage()
    }
    if disasm {
        print!("{}", ftjvm::vm::disasm::disassemble(&w.program));
        return;
    }
    if disasm_fused {
        print!("{}", ftjvm::vm::disasm::disassemble_decoded(&w.program));
        return;
    }
    if let Some(n) = dump_log {
        let records = FtJvm::new(w.program.clone(), cfg.clone())
            .capture_log()
            .unwrap_or_else(|e| fail("log capture failed", &e));
        println!(
            "{} records logged by a failure-free [{} / {} / {}] run; first {n}:",
            records.len(),
            cfg.mode,
            cfg.lock_variant,
            cfg.codec
        );
        for r in records.iter().take(n) {
            println!("  {r}");
        }
        return;
    }

    if vote_quorum.is_some() && group_size.is_none() {
        eprintln!("--vote-quorum requires --group-size");
        usage()
    }
    if let Some(size) = group_size {
        if cfg.checkpoint_interval.is_none() {
            eprintln!("--group-size requires --checkpoint-interval (state transfer grounds joins)");
            usage()
        }
        group_main(&w, cfg, size, vote_quorum, kill_backup, reintegrate);
    }

    let backup_fault = kill_backup.is_some() || reintegrate;
    if backup_fault && cfg.checkpoint_interval.is_none() {
        eprintln!("--kill-backup/--reintegrate require --checkpoint-interval");
        usage()
    }
    if backup_fault {
        // The backup-failure driver co-simulates a hot standby.
        cfg.lag_budget = LagBudget::Hot;
    }

    let harness = FtJvm::new(w.program.clone(), cfg.clone());
    println!("workload: {} — {}", w.name, w.description);
    let (base, _) = harness.run_unreplicated().unwrap_or_else(|e| fail("baseline run failed", &e));
    println!(
        "baseline: {} simulated ({} instructions, {} locks, {} native calls)",
        base.acct.total(),
        base.counters.instructions,
        base.counters.monitor_acquires,
        base.counters.native_calls
    );
    if baseline {
        return;
    }
    // (killed-at, degraded-at, live-at, reintegrated, latency) when the
    // backup-failure driver ran.
    type CkptMeta = (Option<SimTime>, Option<SimTime>, Option<SimTime>, bool, Option<SimTime>);
    let (report, ckpt_meta): (_, Option<CkptMeta>) = if backup_fault {
        let cr = harness
            .run_checkpointed(ftjvm::CheckpointPlan {
                fault: cfg.fault,
                kill_backup_after_units: kill_backup,
                reintegrate,
            })
            .unwrap_or_else(|e| fail("checkpointed run failed (divergence or corruption)", &e));
        let meta = (
            cr.backup_killed_at,
            cr.degraded_entered_at,
            cr.reintegrated_at,
            cr.reintegrated,
            cr.reintegration_latency(),
        );
        (cr.pair, Some(meta))
    } else {
        let r = harness
            .run_replicated()
            .unwrap_or_else(|e| fail("replicated run failed (divergence or corruption)", &e));
        (r, None)
    };
    report
        .check_no_duplicate_outputs()
        .unwrap_or_else(|id| fail("exactly-once violated", &format!("output {id} duplicated")));
    if report.crashed {
        // A crashed primary ran only a prefix; a ratio against the full
        // baseline would mislead.
        println!(
            "\nprimary [{} / {} / {}]: {} simulated (partial — crashed)",
            cfg.mode,
            cfg.lock_variant,
            cfg.codec,
            report.primary.acct.total(),
        );
    } else {
        println!(
            "\nprimary [{} / {} / {}]: {} simulated = {:.2}x baseline",
            cfg.mode,
            cfg.lock_variant,
            cfg.codec,
            report.primary.acct.total(),
            report.primary.acct.total().as_nanos() as f64 / base.acct.total().as_nanos() as f64
        );
    }
    for cat in Category::ALL {
        let t = report.primary.acct.get(cat);
        if t > ftjvm::netsim::SimTime::ZERO {
            println!("  {cat:14} {t}");
        }
    }
    let s = &report.primary_stats;
    println!(
        "  log: {} messages ({} lock, {} interval, {} id-map, {} sched, {} native, {} commit, {} se) \
         in {} flushes, {} bytes; {} heartbeats",
        s.messages_logged(),
        s.lock_acq_records,
        s.lock_interval_records,
        s.id_map_records,
        s.sched_records,
        s.native_result_records,
        s.output_commit_records,
        s.se_state_records,
        s.flushes,
        s.bytes_logged,
        s.heartbeats,
    );
    if cfg.checkpoint_interval.is_some() {
        println!(
            "  epochs: {} cut, {} acked; latest snapshot {} bytes ({} chunks shipped); \
             retained suffix peak {} frames / {} bytes; {} outputs committed degraded",
            s.epochs_cut,
            s.epochs_acked,
            s.snapshot_bytes,
            s.snapshot_chunks_sent,
            s.peak_suffix_frames,
            s.peak_suffix_bytes,
            s.degraded_outputs,
        );
        if let Some(bs) = &report.backup_stats {
            println!("  backup stored-log peak: {} pending records/frames", bs.peak_backup_pending);
        }
    }
    if cfg.net_fault.is_armed() {
        let c = &report.channel;
        let originals = c.messages_sent.saturating_sub(c.retransmits);
        println!(
            "  link: {} frames sent ({} original + {} retransmit, {:.1}% overhead); \
             {} dropped, {} duplicates suppressed, {} corrupt rejected, {} reordered, {} nacks",
            c.messages_sent,
            originals,
            c.retransmits,
            100.0 * c.retransmits as f64 / originals.max(1) as f64,
            c.drops,
            c.dup_deliveries,
            c.corrupted_frames,
            c.reordered,
            c.nacks,
        );
    }
    // A standby killed without a replacement leaves a hot pair with no
    // backup at run end; a crash then is a second fault.
    let lost = report.crashed && report.backup.is_none();
    match (&report.backup, report.crashed) {
        (Some(b), true) => {
            println!("\nprimary CRASHED; {} backup took over:", cfg.lag_budget);
            println!("  detection latency:      {}", report.detection_latency);
            let replay_label = match cfg.lag_budget {
                LagBudget::Cold => "full-log replay time: ",
                LagBudget::Hot => "suffix replay time:   ",
            };
            println!("  {replay_label}  {}", report.recovery_replay_time);
            println!("  total failover latency: {}", report.failover_latency);
            println!("  backup total:           {}", b.acct.total());
            println!("  exactly-once output:    ok");
        }
        (None, true) => println!(
            "\npair lost: no live standby at the crash (second fault, outside the 1-fault model)"
        ),
        (Some(b), false) if cfg.lag_budget == LagBudget::Hot => {
            println!("\nhot standby streamed the whole log (no crash):");
            println!("  standby total:          {}", b.acct.total());
        }
        (None, false) if cfg.lag_budget == LagBudget::Hot => {
            println!("\nhot standby dead at run end (no crash): the primary finished alone");
        }
        _ => {}
    }
    if let Some((killed, degraded, live, reintegrated, latency)) = ckpt_meta {
        println!("\nbackup-failure timeline:");
        match killed {
            Some(t) => println!("  backup killed at:       {t}"),
            None => println!("  backup kill never fired (run ended first)"),
        }
        if let Some(t) = degraded {
            println!("  degraded mode entered:  {t}");
        }
        if let Some(t) = live {
            println!("  replacement live at:    {t}");
        }
        println!("  re-integrated:          {}", if reintegrated { "yes" } else { "no" });
        if let Some(l) = latency {
            println!("  re-integration latency: {l}");
        }
    }
    println!("\nconsole ({} lines):", report.console().len());
    for line in report.console().iter().take(12) {
        println!("  {line}");
    }
    if report.console().len() > 12 {
        println!("  … {} more", report.console().len() - 12);
    }
    if lost {
        std::process::exit(1);
    }
}
