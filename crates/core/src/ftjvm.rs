//! The top-level fault-tolerant JVM harness: a primary/backup replica pair
//! over a shared world, with fail-stop fault injection and recovery.
//!
//! [`FtJvm`] owns a program and a configuration; each `run_*` method builds
//! fresh replicas over a fresh [`World`]:
//!
//! * [`FtJvm::run_unreplicated`] — the baseline (the paper's "original
//!   JVM"), used as the denominator of every normalized figure;
//! * [`FtJvm::run_replicated`] — primary with full replication, cold
//!   backup just logging (the failure-free runs of Figures 2–4);
//! * [`FtJvm::run_with_failure`] — primary crashes per the fault plan, the
//!   backup detects the failure, replays the log, and carries the program
//!   to completion as the new authority.
//!
//! The rest of `FtJvm` lives beside what it drives: the replica builders
//! and the log halves of a cold pair in [`crate::runtime`], the pair runs
//! and [`FtJvm::run_checkpointed`] in [`crate::pair`]. Everything hot goes
//! through one replication driver, [`crate::group::GroupTask`] (a pair is
//! a group with one standby). Set [`FtConfig::lag_budget`] to
//! [`LagBudget::Hot`] to co-simulate a hot standby that streams the log
//! and replays only the unconsumed suffix at failover.

use crate::pair::CheckpointPlan;
use crate::runtime::LagBudget;
use crate::se::SeRegistry;
use crate::stats::ReplicationStats;
use ftjvm_netsim::{
    ChannelStats, FailureDetector, FaultPlan, NetFaultPlan, SharedLink, SimTime, WireCodec,
};
use ftjvm_vm::{
    NativeRegistry, NoopCoordinator, Program, RunReport, SharedWorld, Vm, VmConfig, VmError, World,
};
use std::sync::Arc;

/// Which of the paper's two techniques masks multithreading
/// non-determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Replicated lock synchronization (§4.2; assumes R4A).
    LockSync,
    /// Replicated thread scheduling (§4.2; assumes R4B / green threads).
    ThreadSched,
}

/// How lock-synchronization records are encoded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockVariant {
    /// One record per acquisition, exactly as in the paper (§4.2).
    #[default]
    PerAcquisition,
    /// DejaVu-style interval compression (discussed in the paper's related
    /// work): globally-consecutive acquisitions by one thread collapse
    /// into a single record, typically shrinking the lock log by orders of
    /// magnitude on low-contention programs.
    Intervals,
}

impl std::fmt::Display for LockVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LockVariant::PerAcquisition => "per-acquisition",
            LockVariant::Intervals => "intervals",
        })
    }
}

/// The record stream a pair exchanges: the technique and, under lock
/// synchronization, its encoding. Both coordinators carry it as state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Lock synchronization, one record per acquisition.
    Lock,
    /// Lock synchronization, interval-compressed.
    Interval,
    /// Thread scheduling (no lock variant applies).
    ThreadSched,
}

impl Technique {
    /// The technique a mode and lock variant select.
    pub fn of(mode: ReplicationMode, variant: LockVariant) -> Self {
        match (mode, variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => Technique::Lock,
            (ReplicationMode::LockSync, LockVariant::Intervals) => Technique::Interval,
            (ReplicationMode::ThreadSched, _) => Technique::ThreadSched,
        }
    }
}

impl std::fmt::Display for ReplicationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicationMode::LockSync => "lock-sync",
            ReplicationMode::ThreadSched => "thread-sched",
        })
    }
}

/// Configuration of a replica pair.
#[derive(Clone)]
pub struct FtConfig {
    /// Replication technique.
    pub mode: ReplicationMode,
    /// Lock-record encoding for [`ReplicationMode::LockSync`].
    pub lock_variant: LockVariant,
    /// How far the backup may lag the primary's log: [`LagBudget::Cold`]
    /// (store-only, replay at failover — the paper's baseline) or
    /// [`LagBudget::Hot`] (co-simulated streaming replay; only the
    /// unconsumed suffix remains at failover).
    pub lag_budget: LagBudget,
    /// Base VM configuration (quantum, heap, cost model, entry argument).
    /// Seeds inside are overridden per replica.
    pub vm: VmConfig,
    /// Scheduler seed of the primary.
    pub primary_seed: u64,
    /// Scheduler seed of the backup — deliberately different: replication
    /// must mask the interleaving difference.
    pub backup_seed: u64,
    /// Wall-clock skew of each replica (ND input source).
    pub primary_skew: SimTime,
    /// Wall-clock skew of the backup.
    pub backup_skew: SimTime,
    /// Environment RNG seed of each replica (ND input source).
    pub primary_env_seed: u64,
    /// Environment RNG seed of the backup.
    pub backup_env_seed: u64,
    /// When (if ever) the primary fail-stops.
    pub fault: FaultPlan,
    /// Bytes of buffered records that trigger a periodic flush to the
    /// backup (also flushed at every output commit and at program exit).
    /// Smaller values narrow the window of records lost at a crash, at a
    /// higher communication cost.
    pub flush_threshold: usize,
    /// Wire codec for the primary-to-backup log. [`WireCodec::Fixed`]
    /// (default) sends one fixed-width message per record;
    /// [`WireCodec::Compact`] delta/varint-encodes records and sends one
    /// batch frame per flush. Replay behavior is identical under both.
    pub codec: WireCodec,
    /// Failure-detection parameters.
    pub detector: FailureDetector,
    /// Epoch checkpoint interval, in buffer flushes. `Some(n)`: after every
    /// `n` flushes the primary cuts an epoch at the next quiescent point —
    /// it snapshots the VM, marks the log, and truncates the retained
    /// replay suffix, bounding both its re-integration buffer and the
    /// backup's stored log to roughly one epoch. `None` (the default)
    /// disables checkpointing entirely; the primary's behavior is then
    /// byte-identical to a build without this feature.
    pub checkpoint_interval: Option<u64>,
    /// Network fault plan for the replication link. Unarmed (the default)
    /// keeps the paper's perfect FIFO channel; armed, the log travels over
    /// a lossy datagram link behind the seq/CRC/ack/nack/retransmit
    /// reliability sublayer.
    pub net_fault: NetFaultPlan,
    /// Factory for the side-effect-handler registry (one per replica).
    pub se_factory: fn() -> SeRegistry,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            mode: ReplicationMode::LockSync,
            lock_variant: LockVariant::PerAcquisition,
            lag_budget: LagBudget::Cold,
            vm: VmConfig::default(),
            primary_seed: 11,
            backup_seed: 1337,
            primary_skew: SimTime::from_millis(2),
            backup_skew: SimTime::from_millis(17),
            primary_env_seed: 0xA11CE,
            backup_env_seed: 0xB0B,
            fault: FaultPlan::None,
            flush_threshold: 16 * 1024,
            codec: WireCodec::Fixed,
            checkpoint_interval: None,
            detector: FailureDetector::default(),
            net_fault: NetFaultPlan::default(),
            se_factory: SeRegistry::with_builtins,
        }
    }
}

impl std::fmt::Debug for FtConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FtConfig")
            .field("mode", &self.mode)
            .field("lag_budget", &self.lag_budget)
            .field("codec", &self.codec)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("fault", &self.fault)
            .field("net_fault", &self.net_fault)
            .field("primary_seed", &self.primary_seed)
            .field("backup_seed", &self.backup_seed)
            .finish()
    }
}

/// Everything observable about one replicated run.
#[derive(Debug)]
pub struct PairReport {
    /// The primary's run report (per-category times, counters).
    pub primary: RunReport,
    /// The primary's replication statistics (Table 2 raw material).
    pub primary_stats: ReplicationStats,
    /// True if the fault plan fired.
    pub crashed: bool,
    /// The backup's run report, if it had to take over.
    pub backup: Option<RunReport>,
    /// Backup-side replication statistics, if it took over.
    pub backup_stats: Option<ReplicationStats>,
    /// How long failure detection took, measured from the heartbeat
    /// arrivals the backup actually observed: the detector's deadline
    /// re-arms at each heartbeat and fires when the next never comes.
    pub detection_latency: SimTime,
    /// Simulated time the backup spent replaying the log (recovery), as
    /// opposed to continuing live execution afterwards. For a hot standby
    /// this is only the unconsumed suffix left at promotion.
    pub recovery_replay_time: SimTime,
    /// End-to-end failover latency: detection plus the replay left to do —
    /// the whole log for a cold backup (the stored suffix after its latest
    /// snapshot when checkpointed), the unconsumed suffix for a hot
    /// standby.
    pub failover_latency: SimTime,
    /// Log-channel statistics.
    pub channel: ChannelStats,
    /// The shared world: console, files, applied outputs.
    pub world: SharedWorld,
}

impl PairReport {
    /// The report of a run in which no backup took over.
    pub(crate) fn without_failover(
        primary: RunReport,
        primary_stats: ReplicationStats,
        channel: ChannelStats,
        world: SharedWorld,
    ) -> Self {
        PairReport {
            primary,
            primary_stats,
            crashed: false,
            backup: None,
            backup_stats: None,
            detection_latency: SimTime::ZERO,
            recovery_replay_time: SimTime::ZERO,
            failover_latency: SimTime::ZERO,
            channel,
            world,
        }
    }

    /// The console text lines the external world observed, in order.
    pub fn console(&self) -> Vec<String> {
        self.world.borrow().console_texts()
    }

    /// Checks that every console output id is unique (no duplicated
    /// outputs — the observable half of exactly-once).
    ///
    /// # Errors
    /// Returns the offending output id.
    pub fn check_no_duplicate_outputs(&self) -> Result<(), u64> {
        let world = self.world.borrow();
        let mut seen = std::collections::BTreeSet::new();
        for line in world.console() {
            if !seen.insert(line.output_id) {
                return Err(line.output_id);
            }
        }
        Ok(())
    }
}

/// A fault-tolerant JVM: a program, its natives, and a replica-pair
/// configuration. Each run builds fresh replicas over a fresh [`World`].
/// Cloning is cheap (the program is behind an [`Arc`]); a clone that
/// shares a trunk ([`FtJvm::set_shared_bandwidth`]) contends for the same
/// bandwidth.
#[derive(Debug, Clone)]
pub struct FtJvm {
    pub(crate) program: Arc<Program>,
    pub(crate) natives: NativeRegistry,
    pub(crate) cfg: FtConfig,
    /// The shared trunk this pair's perfect channels queue on, with the
    /// offset of this pair's local clock on the trunk's timeline.
    pub(crate) shared: Option<(SharedLink, SimTime)>,
}

impl FtJvm {
    /// Creates a harness with the builtin native registry.
    pub fn new(program: Arc<Program>, cfg: FtConfig) -> Self {
        FtJvm::with_natives(program, NativeRegistry::with_builtins(), cfg)
    }

    /// Creates a harness with a custom native registry (applications with
    /// their own natives and SE handlers).
    pub fn with_natives(program: Arc<Program>, natives: NativeRegistry, cfg: FtConfig) -> Self {
        FtJvm { program, natives, cfg, shared: None }
    }

    /// The configuration.
    pub fn config(&self) -> &FtConfig {
        &self.cfg
    }

    /// This harness itself: the replica builders and log entry points
    /// ([`FtJvm::build_primary`], [`FtJvm::run_primary_to_log`],
    /// [`FtJvm::replay_log`]) are methods of `FtJvm`. Kept only because
    /// the benchmark package under `benchmark/` calls
    /// `runtime().run_primary_to_log(..)`; new code calls the methods
    /// directly.
    pub fn runtime(&self) -> &FtJvm {
        self
    }

    /// Runs the program on a single, unreplicated VM (the baseline of every
    /// normalized measurement).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_unreplicated(&self) -> Result<(RunReport, SharedWorld), VmError> {
        let world = World::shared();
        let env = self.primary_env(&world);
        let mut vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            env,
            self.vm_config(self.cfg.primary_seed),
        )?;
        let report = vm.run(&mut NoopCoordinator::new())?;
        Ok((report, world))
    }

    /// Runs the primary under full replication. If the fault plan fires,
    /// the backup detects the failure, replays the log and finishes the
    /// program. The configured [`LagBudget`] and
    /// [`FtConfig::checkpoint_interval`] pick the pair run of
    /// [`crate::pair`]: cold, cold-checkpointed, or hot — co-simulated,
    /// replaying only the unconsumed log suffix at failover.
    ///
    /// # Errors
    /// Propagates fatal VM errors from either replica, including
    /// [`VmError::ReplayDivergence`] when recovery detects that the
    /// program violated the mode's assumptions (e.g. a data race under
    /// lock synchronization).
    pub fn run_replicated(&self) -> Result<PairReport, VmError> {
        match (self.cfg.lag_budget, self.cfg.checkpoint_interval) {
            (LagBudget::Cold, None) => self.run_cold(),
            (LagBudget::Cold, Some(_)) => self.run_cold_checkpointed(),
            (LagBudget::Hot, _) => {
                let plan = CheckpointPlan { fault: self.cfg.fault, ..CheckpointPlan::default() };
                Ok(self.run_hot(plan)?.pair)
            }
        }
    }

    /// Like [`FtJvm::run_replicated`] but asserts that a fault plan is
    /// armed (catching benchmarks that forgot to arm one).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    ///
    /// # Panics
    /// Panics if the configured fault plan can never fire.
    pub fn run_with_failure(&self) -> Result<PairReport, VmError> {
        assert!(self.cfg.fault.is_armed(), "run_with_failure requires an armed fault plan");
        self.run_replicated()
    }

    /// Runs an N-replica group per `gcfg`: rank-ordered promotion chains,
    /// configurable ack policies, and optional ND-record digest voting
    /// (requires [`FtConfig::checkpoint_interval`] whenever a join could
    /// need a state transfer). Size 2 is the hot pair. See
    /// [`crate::group::GroupTask`].
    ///
    /// # Errors
    /// Propagates fatal VM errors from any replica and configuration
    /// errors from [`crate::group::GroupTask::new`].
    pub fn run_group(
        &self,
        gcfg: crate::group::GroupConfig,
    ) -> Result<crate::group::GroupReport, VmError> {
        crate::group::GroupTask::new(self.clone(), gcfg)?.run_to_completion()?.into_report()
    }

    /// Runs the failure-free pair, then replays the complete log on a
    /// backup — used by benchmarks to measure backup replay cost (the
    /// "backup" bars of Figure 2) without needing a mid-run crash.
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_backup_replay(&self) -> Result<PairReport, VmError> {
        let world = World::shared();
        let (primary, frames, primary_stats, channel) =
            self.run_primary_to_log(&world, FaultPlan::None)?;
        let (backup, backup_stats, recovered_at) = self.replay_log(&world, frames)?;
        let recovery_replay_time = recovered_at.unwrap_or_else(|| backup.acct.now());
        Ok(PairReport {
            backup: Some(backup),
            backup_stats: Some(backup_stats),
            recovery_replay_time,
            ..PairReport::without_failover(primary, primary_stats, channel, world)
        })
    }

    /// Verifies restriction R4A the way the paper suggests: one
    /// unreplicated run under the Eraser-style lockset detector. An empty
    /// result means the observed execution obeyed the locking discipline
    /// and the program is safe for [`ReplicationMode::LockSync`] (dynamic
    /// detection is sound for the observed interleaving only — run it
    /// under several seeds for confidence).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn verify_r4a(&self) -> Result<Vec<ftjvm_vm::RaceReport>, VmError> {
        let world = World::shared();
        let env = self.primary_env(&world);
        let mut cfg = self.vm_config(self.cfg.primary_seed);
        cfg.race_detect = true;
        let mut vm = Vm::new(self.program.clone(), self.natives.clone(), env, cfg)?;
        let report = vm.run(&mut NoopCoordinator::new())?;
        Ok(report.races)
    }

    /// Runs the failure-free primary and returns the decoded record stream
    /// it would ship to the backup — the log-inspection entry point used
    /// by `ftjvm-run --dump-log`.
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn capture_log(&self) -> Result<Vec<crate::records::Record>, VmError> {
        let world = World::shared();
        let (_, frames, _, _) = self.run_primary_to_log(&world, FaultPlan::None)?;
        crate::codec::decode_frames(frames)
            .map_err(|e| VmError::Internal(format!("own log failed to decode: {e}")))
    }

    /// Convenience: returns a coordinator-less clone of the program for
    /// inspection.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }
}
