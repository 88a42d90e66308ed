//! Pair-as-value: one replicated primary/backup pair as a resumable
//! state machine.
//!
//! [`PairTask`] exposes a poll-style [`step`](PairTask::step): *run until
//! your local clock reaches the target instant or something notable
//! happens, then yield a [`PairEvent`]*. It drives the cold, store-only
//! modes itself; a **hot** pair is a replica group with one standby, so
//! the hot and checkpointed constructors build a size-2
//! [`GroupTask`] — the one driver that slices a hot primary and feeds
//! standbys — and project its [`GroupReport`] into the pair-shaped
//! [`PairReport`] / [`CheckpointReport`]. `tests/pair_equivalence.rs`
//! pins every mode byte-identical to the original monolithic loops.
//!
//! Granularity contract (load-bearing for byte-identity):
//!
//! * **Hot pairs** execute exactly one group-driver pass per
//!   [`SLICE_UNITS`] primary slice — the receive/pump step, then the epoch
//!   bookkeeping — so stepping them more finely or coarsely from outside
//!   cannot change the simulated timeline.
//! * **Cold states** run the primary with one coarse `run_to_end` call.
//!   Slicing a cold primary would perturb the thread-scheduling
//!   technique's per-consult progress accounting and change frame timing,
//!   so the `until` target is deliberately ignored there.

use crate::backup::EpochStore;
use crate::codec::frame_is_heartbeat;
use crate::ftjvm::PairReport;
use crate::group::{GroupConfig, GroupEvent, GroupReport, GroupTask};
use crate::runtime::{
    observe_heartbeats, CheckpointPlan, CheckpointReport, LagBudget, Replica, ReplicaRuntime,
    SLICE_UNITS,
};
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{ChannelStats, FaultPlan, HeartbeatMonitor, SimTime};
use ftjvm_vm::{RunOutcome, RunReport, SharedWorld, SliceOutcome, VmError, World};

/// What a [`PairTask::step`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairEvent {
    /// The local clock reached the step target; the pair is still running.
    Running {
        /// The pair-local instant after the step.
        now: SimTime,
    },
    /// The primary fail-stopped; failover ran (detection, promotion, and
    /// suffix replay are complete — the measured latencies are in the
    /// report). The next step returns [`PairEvent::Done`].
    PrimaryCrashed {
        /// The pair-local crash instant.
        at: SimTime,
    },
    /// The checkpoint plan killed the backup (the primary has not noticed
    /// yet — its reverse-heartbeat detector is still counting down).
    BackupKilled {
        /// The pair-local kill instant.
        at: SimTime,
    },
    /// The primary's detector declared the backup dead: output commits
    /// stop waiting for acknowledgments.
    Degraded {
        /// The pair-local degraded-entry instant.
        at: SimTime,
    },
    /// A replacement standby finished state transfer and went live; the
    /// pair is 1-fault tolerant again.
    Reintegrated {
        /// The pair-local reintegration instant.
        at: SimTime,
    },
    /// The run is over and the report is ready
    /// ([`PairTask::into_pair_report`]).
    Done,
}

/// The phase a [`PairTask`] is in.
// One task exists per pair; boxing the report-sized replay variant would
// only add an indirection to a non-hot path.
#[allow(clippy::large_enum_variant)]
enum TaskState {
    /// Cold pair: primary runs to completion/crash in one coarse step.
    ColdRun { primary: Box<Replica> },
    /// Cold pair after a crash: the drained log awaits replay.
    ColdReplay {
        primary_report: RunReport,
        primary_stats: ReplicationStats,
        channel_stats: ChannelStats,
        frames: Vec<Bytes>,
        detection_latency: SimTime,
    },
    /// Hot pair (checkpointed or not): a replica group with one standby.
    Hot(Box<GroupTask>),
    /// Checkpointed cold pair: durable epoch store absorbing the stream.
    ColdCkptRun { primary: Box<Replica>, store: EpochStore, monitor: HeartbeatMonitor },
    /// Report ready.
    Finished,
    /// A step returned an error; the task is poisoned.
    Failed,
}

/// One replicated pair as a resumable value.
pub struct PairTask {
    rt: ReplicaRuntime,
    world: SharedWorld,
    state: TaskState,
    backup_killed_at: Option<SimTime>,
    degraded_entered_at: Option<SimTime>,
    reintegrated_at: Option<SimTime>,
    report: Option<PairReport>,
}

impl std::fmt::Debug for PairTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match &self.state {
            TaskState::ColdRun { .. } => "cold-run",
            TaskState::ColdReplay { .. } => "cold-replay",
            TaskState::Hot(_) => "hot-run",
            TaskState::ColdCkptRun { .. } => "cold-ckpt-run",
            TaskState::Finished => "finished",
            TaskState::Failed => "failed",
        };
        f.debug_struct("PairTask").field("phase", &phase).field("now", &self.now()).finish()
    }
}

impl PairTask {
    /// A cold pair: store-only backup, whole-log replay at failover.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn cold(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, fault)?);
        Ok(PairTask::with_state(rt, world, TaskState::ColdRun { primary }))
    }

    /// A hot pair: primary and streaming standby co-simulated.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn hot(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        PairTask::group_of_two(rt, CheckpointPlan { fault, ..CheckpointPlan::default() })
    }

    /// A checkpointed hot pair under `plan` (backup kill, degraded mode,
    /// re-integration).
    ///
    /// # Errors
    /// Returns an error when [`crate::FtConfig::checkpoint_interval`] is
    /// unset, and propagates program-loading errors.
    pub fn checkpointed(rt: ReplicaRuntime, plan: CheckpointPlan) -> Result<Self, VmError> {
        if rt.cfg().checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        PairTask::group_of_two(rt, plan)
    }

    /// The one-standby replica group a hot pair is: the plan's primary
    /// fault fells the first (and only) reign, its backup kill names the
    /// only rank slot.
    fn group_of_two(rt: ReplicaRuntime, plan: CheckpointPlan) -> Result<Self, VmError> {
        let cfg = GroupConfig {
            size: 2,
            kills: vec![plan.fault],
            kill_standby_after_units: plan.kill_backup_after_units.map(|units| (0, units)),
            reintegrate: plan.reintegrate,
            ..GroupConfig::default()
        };
        let group = GroupTask::new(rt.clone(), cfg)?;
        let world = group.world().clone();
        Ok(PairTask::with_state(rt, world, TaskState::Hot(Box::new(group))))
    }

    /// A checkpointed cold pair: durable [`EpochStore`] backup,
    /// snapshot-restored recovery.
    ///
    /// # Errors
    /// Returns an error when [`crate::FtConfig::checkpoint_interval`] is
    /// unset, and propagates program-loading errors.
    pub fn cold_checkpointed(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        if rt.cfg().checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_cold_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, fault)?);
        let store = EpochStore::new();
        let monitor = rt.cfg().detector.monitor(SimTime::ZERO);
        Ok(PairTask::with_state(rt, world, TaskState::ColdCkptRun { primary, store, monitor }))
    }

    /// Builds the task variant the runtime's configuration selects, as
    /// [`ReplicaRuntime::run_pair`] does — with `plan`'s kill and
    /// re-integration machinery applied when the configuration is a
    /// checkpointed hot pair.
    ///
    /// # Errors
    /// Propagates construction errors from the selected variant.
    pub fn from_config(rt: ReplicaRuntime, plan: CheckpointPlan) -> Result<Self, VmError> {
        match (rt.cfg().lag_budget, rt.cfg().checkpoint_interval) {
            (LagBudget::Cold, None) => PairTask::cold(rt, plan.fault),
            (LagBudget::Cold, Some(_)) => PairTask::cold_checkpointed(rt, plan.fault),
            (LagBudget::Hot, None) => PairTask::hot(rt, plan.fault),
            (LagBudget::Hot, Some(_)) => PairTask::checkpointed(rt, plan),
        }
    }

    fn with_state(rt: ReplicaRuntime, world: SharedWorld, state: TaskState) -> Self {
        PairTask {
            rt,
            world,
            state,
            backup_killed_at: None,
            degraded_entered_at: None,
            reintegrated_at: None,
            report: None,
        }
    }

    /// The pair-local instant the task has reached (the primary's clock
    /// while it lives; the final report's latest clock once finished).
    pub fn now(&self) -> SimTime {
        match &self.state {
            TaskState::ColdRun { primary } | TaskState::ColdCkptRun { primary, .. } => {
                primary.now()
            }
            TaskState::Hot(group) => group.now(),
            TaskState::ColdReplay { primary_report, .. } => primary_report.acct.now(),
            TaskState::Finished | TaskState::Failed => self
                .report
                .as_ref()
                .map(|r| {
                    let backup_end =
                        r.backup.as_ref().map(|b| b.acct.now()).unwrap_or(SimTime::ZERO);
                    r.primary.acct.now().max(backup_end)
                })
                .unwrap_or(SimTime::ZERO),
        }
    }

    /// True once the report is ready and further steps return
    /// [`PairEvent::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self.state, TaskState::Finished)
    }

    /// Advances the pair until its local clock reaches `until`, a state
    /// transition happens, or the run completes. Pass [`SimTime::MAX`] to
    /// run to the next transition regardless of time.
    ///
    /// # Errors
    /// Propagates fatal VM errors from either replica; the task is
    /// poisoned afterwards (subsequent steps keep failing).
    pub fn step(&mut self, until: SimTime) -> Result<PairEvent, VmError> {
        match std::mem::replace(&mut self.state, TaskState::Failed) {
            TaskState::Finished => {
                self.state = TaskState::Finished;
                Ok(PairEvent::Done)
            }
            TaskState::Failed => Err(VmError::Internal("stepping a failed pair task".into())),
            TaskState::ColdRun { primary } => self.step_cold(primary),
            TaskState::ColdReplay {
                primary_report,
                primary_stats,
                channel_stats,
                frames,
                detection_latency,
            } => self.step_cold_replay(
                primary_report,
                primary_stats,
                channel_stats,
                frames,
                detection_latency,
            ),
            TaskState::Hot(group) => self.step_group(group, until),
            TaskState::ColdCkptRun { primary, store, monitor } => {
                self.step_cold_ckpt(primary, store, monitor, until)
            }
        }
    }

    /// Steps the task to completion (the legacy single-pair drivers).
    ///
    /// # Errors
    /// Propagates the first step error.
    pub fn run_to_completion(mut self) -> Result<Self, VmError> {
        while !self.is_done() {
            self.step(SimTime::MAX)?;
        }
        Ok(self)
    }

    /// Consumes the task, returning the pair report.
    ///
    /// # Errors
    /// Returns an error if the task has not finished.
    pub fn into_pair_report(self) -> Result<PairReport, VmError> {
        self.report.ok_or_else(|| VmError::Internal("pair task has no report yet".into()))
    }

    /// Consumes the task, returning the checkpointed-run report (the pair
    /// report plus the kill/degraded/reintegration timeline).
    ///
    /// # Errors
    /// Returns an error if the task has not finished.
    pub fn into_checkpoint_report(self) -> Result<CheckpointReport, VmError> {
        let backup_killed_at = self.backup_killed_at;
        let degraded_entered_at = self.degraded_entered_at;
        let reintegrated_at = self.reintegrated_at;
        let pair = self.into_pair_report()?;
        Ok(CheckpointReport {
            pair,
            backup_killed_at,
            degraded_entered_at,
            reintegrated_at,
            reintegrated: reintegrated_at.is_some(),
        })
    }

    /// The finished report, if the run is over.
    pub fn report(&self) -> Option<&PairReport> {
        self.report.as_ref()
    }

    // --- Cold ------------------------------------------------------------

    fn step_cold(&mut self, mut primary: Box<Replica>) -> Result<PairEvent, VmError> {
        let primary_report = primary.run_to_end()?;
        let crashed = primary_report.outcome == RunOutcome::Stopped;
        if crashed {
            // Fail-stop: the primary's volatile environment state is lost
            // with its process; the external world survives.
            primary.fail_env();
        }
        let (mut channel, primary_stats) = primary.into_primary_parts()?;
        if !crashed {
            let channel_stats = channel.stats();
            self.report = Some(PairReport {
                primary: primary_report,
                primary_stats,
                crashed: false,
                backup: None,
                backup_stats: None,
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            });
            self.state = TaskState::Finished;
            return Ok(PairEvent::Done);
        }
        let crash_at = primary_report.acct.now();
        let drained = channel.drain();
        let channel_stats = channel.stats();
        // Failure detection from the heartbeats the backup actually
        // received: the detector's deadline re-arms at each heartbeat
        // arrival and fires when the next one never comes.
        let mut monitor = self.rt.cfg().detector.monitor(SimTime::ZERO);
        let detection_at = observe_heartbeats(&mut monitor, &drained).max(crash_at);
        let detection_latency = detection_at - crash_at;
        let frames: Vec<Bytes> = drained.into_iter().map(|(_, b)| b).collect();
        self.state = TaskState::ColdReplay {
            primary_report,
            primary_stats,
            channel_stats,
            frames,
            detection_latency,
        };
        Ok(PairEvent::PrimaryCrashed { at: crash_at })
    }

    fn step_cold_replay(
        &mut self,
        primary_report: RunReport,
        primary_stats: ReplicationStats,
        channel_stats: ChannelStats,
        frames: Vec<Bytes>,
        detection_latency: SimTime,
    ) -> Result<PairEvent, VmError> {
        let (backup_report, backup_stats, recovered_at) =
            self.rt.replay_log(&self.world, frames)?;
        let recovery_replay_time = recovered_at.unwrap_or_else(|| backup_report.acct.now());
        // Cold backups pay the replay at failover; the legacy warm flag
        // models a backup that already replayed everything flushed, so
        // only detection remains.
        let failover_latency = if self.rt.cfg().warm_backup {
            detection_latency
        } else {
            detection_latency + recovery_replay_time
        };
        self.report = Some(PairReport {
            primary: primary_report,
            primary_stats,
            crashed: true,
            backup: Some(backup_report),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency,
            channel: channel_stats,
            world: self.world.clone(),
        });
        self.state = TaskState::Finished;
        Ok(PairEvent::Done)
    }

    // --- Hot -------------------------------------------------------------

    /// Steps the one-standby group and, once it finishes, projects its
    /// report into the pair's.
    fn step_group(
        &mut self,
        mut group: Box<GroupTask>,
        until: SimTime,
    ) -> Result<PairEvent, VmError> {
        let event = match group.step(until)? {
            // A pair runs no digest votes, so nothing is ever evicted.
            GroupEvent::Running { now } | GroupEvent::Evicted { at: now, .. } => {
                PairEvent::Running { now }
            }
            GroupEvent::StandbyKilled { at, .. } => PairEvent::BackupKilled { at },
            GroupEvent::Degraded { at } => PairEvent::Degraded { at },
            GroupEvent::Reintegrated { at, .. } => PairEvent::Reintegrated { at },
            GroupEvent::PrimaryFailed { at, .. } => PairEvent::PrimaryCrashed { at },
            GroupEvent::Done => PairEvent::Done,
        };
        if group.is_done() {
            self.project(group.into_report()?)?;
            self.state = TaskState::Finished;
        } else {
            self.state = TaskState::Hot(group);
        }
        Ok(event)
    }

    /// The pair-shaped view of a finished one-standby group: the only
    /// reign is the primary's, the standby side of the run's end is the
    /// backup (absent when it was dead or still mid-transfer), and the
    /// only possible failover carries the measured latencies.
    fn project(&mut self, group: GroupReport) -> Result<(), VmError> {
        let GroupReport { crashed, failovers, reigns, standby, world, .. } = group;
        let reign = reigns
            .into_iter()
            .next()
            .ok_or_else(|| VmError::Internal("finished group recorded no reign".into()))?;
        let channel = reign
            .channels
            .into_iter()
            .next()
            .ok_or_else(|| VmError::Internal("pair reign recorded no link".into()))?;
        let (detection_latency, suffix_replay) = failovers
            .first()
            .map_or((SimTime::ZERO, SimTime::ZERO), |f| (f.detection_latency, f.suffix_replay));
        let (backup, backup_stats) = standby.map(|s| (s.report, s.stats)).unzip();
        self.backup_killed_at = group.standby_killed_at;
        self.degraded_entered_at = group.degraded_at;
        self.reintegrated_at = group.reintegrated.first().copied();
        self.report = Some(PairReport {
            primary: reign.report,
            primary_stats: reign.stats,
            crashed,
            backup,
            backup_stats,
            detection_latency,
            recovery_replay_time: suffix_replay,
            failover_latency: detection_latency + suffix_replay,
            channel,
            world,
        });
        Ok(())
    }

    // --- Checkpointed cold -----------------------------------------------

    fn step_cold_ckpt(
        &mut self,
        mut primary: Box<Replica>,
        mut store: EpochStore,
        mut monitor: HeartbeatMonitor,
        until: SimTime,
    ) -> Result<PairEvent, VmError> {
        let (primary_report, crashed) = loop {
            let outcome = primary.step(SLICE_UNITS)?;
            let now_p = primary.now();
            for (arrival, frame) in primary.recv_ready(0, now_p)? {
                if frame_is_heartbeat(&frame) {
                    monitor.observe(arrival);
                }
                store.absorb(frame)?;
            }
            primary.relay_epoch_ack(store.epochs_stored);
            match outcome {
                SliceOutcome::Budget => {
                    if primary.try_cut_epoch()? {
                        primary.ship_latest_snapshot(0)?;
                    }
                    if now_p >= until {
                        self.state = TaskState::ColdCkptRun { primary, store, monitor };
                        return Ok(PairEvent::Running { now: now_p });
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };

        let crash_at = primary_report.acct.now();
        if crashed {
            primary.fail_env();
        }
        let (mut channel, primary_stats) = primary.into_primary_parts()?;
        let drained = channel.drain();
        let channel_stats = channel.stats();
        for (arrival, frame) in drained {
            if frame_is_heartbeat(&frame) {
                monitor.observe(arrival);
            }
            store.absorb(frame)?;
        }
        let store_peak = store.peak_frames;
        if !crashed {
            self.report = Some(PairReport {
                primary: primary_report,
                primary_stats,
                crashed: false,
                backup: None,
                backup_stats: None,
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            });
            self.state = TaskState::Finished;
            return Ok(PairEvent::Done);
        }
        let detection_at = monitor.deadline().max(crash_at);
        let detection_latency = detection_at - crash_at;
        let (snapshot, suffix) = store.into_recovery();
        let (backup_report, mut backup_stats, recovery_replay_time) = match snapshot {
            Some((_epoch, blob)) => {
                // Snapshot-based recovery: restore, replay the stored
                // suffix, promote.
                let mut b = self.rt.build_resumed_backup(&self.world, &blob, 0)?;
                for frame in suffix {
                    b.feed_frame(detection_at, frame)?;
                }
                b.finish_stream();
                let r = b.run_to_end()?;
                let recovered = b.recovery_completed_at().unwrap_or_else(|| r.acct.now());
                let replay =
                    if recovered > detection_at { recovered - detection_at } else { SimTime::ZERO };
                let stats = b.backup_stats();
                (r, stats, replay)
            }
            None => {
                // No epoch completed before the crash: classic cold
                // replay from the initial state.
                let (r, stats, recovered_at) = self.rt.replay_log(&self.world, suffix)?;
                let replay = recovered_at.unwrap_or_else(|| r.acct.now());
                (r, stats, replay)
            }
        };
        backup_stats.peak_backup_pending = backup_stats.peak_backup_pending.max(store_peak);
        self.report = Some(PairReport {
            primary: primary_report,
            primary_stats,
            crashed: true,
            backup: Some(backup_report),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency: detection_latency + recovery_replay_time,
            channel: channel_stats,
            world: self.world.clone(),
        });
        self.state = TaskState::Finished;
        Ok(PairEvent::PrimaryCrashed { at: crash_at })
    }
}
