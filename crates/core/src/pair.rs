//! The single-pair runs, as straight-line functions on [`FtJvm`]:
//!
//! * **cold** ([`crate::LagBudget::Cold`], the paper's baseline, §1) — the
//!   primary runs to its end or crash; on a crash its log is drained with
//!   the arrival instants, failure detection is observed over the
//!   heartbeat arrivals, and a cold backup replays the whole log from the
//!   initial state;
//! * **cold, checkpointed** ([`crate::FtConfig::checkpoint_interval`] set)
//!   — the primary runs in [`SLICE_UNITS`] slices into a durable
//!   [`EpochStore`], cutting an epoch and shipping its snapshot whenever
//!   one is due; recovery restores the latest stored snapshot and replays
//!   the stored suffix, or replays the whole stored log when no epoch
//!   completed before the crash;
//! * **hot** ([`crate::LagBudget::Hot`], and every
//!   [`run_checkpointed`](FtJvm::run_checkpointed) plan) — a
//!   [`crate::group::GroupTask`] of size 2, the one driver that slices a
//!   hot primary and feeds standbys, whose [`GroupReport`] is projected
//!   into the pair-shaped [`PairReport`] / [`CheckpointReport`].
//!
//! `tests/pair_equivalence.rs` pins every run byte-identical.
//!
//! Granularity contract (load-bearing for byte-identity): a cold primary
//! runs as one coarse `run_to_end`. Slicing it would perturb the
//! thread-scheduling technique's per-consult progress accounting and
//! change frame timing. A hot pair runs exactly one group-driver pass per
//! [`SLICE_UNITS`] primary slice.

use crate::backup::EpochStore;
use crate::codec::frame_is_heartbeat;
use crate::ftjvm::{FtJvm, PairReport};
use crate::group::{GroupConfig, GroupReport};
use crate::runtime::SLICE_UNITS;
use bytes::Bytes;
use ftjvm_netsim::{FaultPlan, HeartbeatMonitor, SimTime};
use ftjvm_vm::{RunOutcome, SliceOutcome, VmError, World};

/// What to do to a checkpointed pair while it runs
/// ([`FtJvm::run_checkpointed`]).
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Primary-side fault injection, as in the other run drivers.
    pub fault: FaultPlan,
    /// Kill the backup once the primary has executed at least this many
    /// instruction units (rounded up to a whole co-simulation slice).
    pub kill_backup_after_units: Option<u64>,
    /// After the primary detects the dead backup, recruit a replacement
    /// standby from the latest snapshot plus the live suffix.
    pub reintegrate: bool,
}

/// Outcome of [`FtJvm::run_checkpointed`].
#[derive(Debug)]
pub struct CheckpointReport {
    /// The underlying pair report (primary plus the final survivor).
    pub pair: PairReport,
    /// Instant the backup was killed, when the plan killed one.
    pub backup_killed_at: Option<SimTime>,
    /// Instant the primary declared the backup dead and went degraded.
    pub degraded_entered_at: Option<SimTime>,
    /// Instant the replacement standby finished state transfer and went
    /// live.
    pub reintegrated_at: Option<SimTime>,
    /// True once a replacement standby was live before the run ended.
    pub reintegrated: bool,
}

impl CheckpointReport {
    /// Kill-to-live re-integration latency, when both endpoints exist.
    pub fn reintegration_latency(&self) -> Option<SimTime> {
        match (self.backup_killed_at, self.reintegrated_at) {
            (Some(k), Some(r)) if r > k => Some(r - k),
            (Some(_), Some(_)) => Some(SimTime::ZERO),
            _ => None,
        }
    }

    /// Length of the degraded window (detector fired → replacement live),
    /// when the run went degraded. Open-ended windows (never re-armed)
    /// return `None`.
    pub fn degraded_window(&self) -> Option<SimTime> {
        match (self.degraded_entered_at, self.reintegrated_at) {
            (Some(d), Some(r)) if r > d => Some(r - d),
            (Some(_), Some(_)) => Some(SimTime::ZERO),
            _ => None,
        }
    }
}

impl FtJvm {
    /// Runs a hot pair — a replica group with one standby — under epoch
    /// checkpointing, with optional backup-kill and re-integration per
    /// `plan`.
    ///
    /// The primary cuts a checkpoint every `checkpoint_interval` flushes at
    /// a quiescent boundary, the driver relays the backup's absorbed-epoch
    /// count back as the ack, and the retained replay suffix truncates at
    /// each cut. When the plan kills the backup, the primary's
    /// reverse-heartbeat detector fires after the configured deadline and
    /// the primary enters *degraded mode* (it stops sending to the dead
    /// host, output commits stop waiting for acknowledgments, the gap is
    /// counted in [`crate::ReplicationStats::degraded_outputs`]). With
    /// `reintegrate`, the primary then recruits a replacement standby by
    /// force-cutting a fresh epoch and shipping the snapshot as chunk
    /// frames over a fresh channel (lossy + reliability sublayer when the
    /// net-fault plan is armed), after which the pair is 1-fault tolerant
    /// again — a subsequent primary crash fails over to the replacement.
    ///
    /// # Errors
    /// Returns an error when `checkpoint_interval` is unset, and
    /// propagates fatal VM errors from any replica.
    pub fn run_checkpointed(&self, plan: CheckpointPlan) -> Result<CheckpointReport, VmError> {
        if self.cfg.checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        self.run_hot(plan)
    }

    /// The cold pair, under the configured fault plan.
    pub(crate) fn run_cold(&self) -> Result<PairReport, VmError> {
        let world = World::shared();
        let (primary, mut channel, primary_stats) = self.run_primary(&world, self.cfg.fault)?;
        if primary.outcome != RunOutcome::Stopped {
            let channel = channel.stats();
            return Ok(PairReport::without_failover(primary, primary_stats, channel, world));
        }
        let crash_at = primary.acct.now();
        let drained = channel.drain();
        // Stats after the drain: on a lossy link the takeover delivery
        // itself detects duplicates/corruption worth counting.
        let channel_stats = channel.stats();
        // Failure detection from the heartbeats the backup actually
        // received: the detector's deadline re-arms at each heartbeat
        // arrival and fires when the next one never comes.
        let mut monitor = self.cfg.detector.monitor(SimTime::ZERO);
        for (arrival, frame) in &drained {
            if frame_is_heartbeat(frame) {
                monitor.observe(*arrival);
            }
        }
        let detection_latency = monitor.deadline().max(crash_at) - crash_at;
        let frames = drained.into_iter().map(|(_, frame)| frame).collect();
        let (backup, backup_stats, recovered_at) = self.replay_log(&world, frames)?;
        let recovery_replay_time = recovered_at.unwrap_or_else(|| backup.acct.now());
        Ok(PairReport {
            primary,
            primary_stats,
            crashed: true,
            backup: Some(backup),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency: detection_latency + recovery_replay_time,
            channel: channel_stats,
            world,
        })
    }

    /// The cold pair with a durable epoch store, under the configured
    /// fault plan.
    pub(crate) fn run_cold_checkpointed(&self) -> Result<PairReport, VmError> {
        let world = World::shared();
        let mut primary = self.build_primary(&world, self.cfg.fault)?;
        let mut store = EpochStore::new();
        let mut monitor = self.cfg.detector.monitor(SimTime::ZERO);
        let (report, crashed) = loop {
            let outcome = primary.step(SLICE_UNITS)?;
            let now = primary.now();
            store_frames(&mut store, &mut monitor, primary.core().link_mut(0).recv_ready(now))?;
            primary.core().record_epoch_ack(store.epochs_stored);
            match outcome {
                // The durable store can outlive the primary and needs the
                // snapshot itself before it may truncate, so every cut
                // builds and ships it.
                SliceOutcome::Budget => {
                    if let Some(blob) = primary.cut_epoch_blob(false)? {
                        primary.ship_snapshot(0, &blob);
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };
        if crashed {
            primary.fail_env();
        }
        // `build_primary` builds exactly one link.
        let (mut links, primary_stats) = primary.into_parts();
        let mut channel = links.swap_remove(0);
        let drained = channel.drain();
        let channel_stats = channel.stats();
        store_frames(&mut store, &mut monitor, drained)?;
        if !crashed {
            return Ok(PairReport::without_failover(report, primary_stats, channel_stats, world));
        }
        let crash_at = report.acct.now();
        let detection_at = monitor.deadline().max(crash_at);
        let detection_latency = detection_at - crash_at;
        let store_peak = store.peak_frames;
        let (backup, mut backup_stats, recovery_replay_time) = match store.into_recovery() {
            (Some((_epoch, blob)), suffix) => {
                // Snapshot-based recovery: restore, replay the stored
                // suffix, promote.
                let mut b = self.build_resumed_backup(&world, &blob, 0)?;
                for frame in suffix {
                    b.feed_frame(detection_at, frame)?;
                }
                b.finish_stream();
                let r = b.run_to_end()?;
                let recovered = b.backup().recovery_completed_at().unwrap_or_else(|| r.acct.now());
                let replay =
                    if recovered > detection_at { recovered - detection_at } else { SimTime::ZERO };
                (r, b.backup().stats().clone(), replay)
            }
            // No epoch completed before the crash: classic cold replay
            // from the initial state.
            (None, suffix) => {
                let (r, stats, recovered_at) = self.replay_log(&world, suffix)?;
                let replay = recovered_at.unwrap_or_else(|| r.acct.now());
                (r, stats, replay)
            }
        };
        backup_stats.peak_backup_pending = backup_stats.peak_backup_pending.max(store_peak);
        Ok(PairReport {
            primary: report,
            primary_stats,
            crashed: true,
            backup: Some(backup),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency: detection_latency + recovery_replay_time,
            channel: channel_stats,
            world,
        })
    }

    /// The one-standby replica group a hot pair is: the plan's primary
    /// fault fells the first (and only) reign, its backup kill names the
    /// only rank slot.
    pub(crate) fn run_hot(&self, plan: CheckpointPlan) -> Result<CheckpointReport, VmError> {
        let group = self.run_group(GroupConfig {
            size: 2,
            kills: vec![plan.fault],
            kill_standby_after_units: plan.kill_backup_after_units.map(|units| (0, units)),
            reintegrate: plan.reintegrate,
            ..GroupConfig::default()
        })?;
        project(group)
    }
}

/// Stores delivered frames in the durable store, re-arming the failure
/// detector at each heartbeat arrival.
fn store_frames(
    store: &mut EpochStore,
    monitor: &mut HeartbeatMonitor,
    delivered: Vec<(SimTime, Bytes)>,
) -> Result<(), VmError> {
    for (arrival, frame) in delivered {
        if frame_is_heartbeat(&frame) {
            monitor.observe(arrival);
        }
        store.absorb(frame)?;
    }
    Ok(())
}

/// The pair-shaped view of a finished one-standby group: the only reign
/// is the primary's, the standby side of the run's end is the backup
/// (absent when it was dead or still mid-transfer), and the only possible
/// failover carries the measured latencies.
fn project(group: GroupReport) -> Result<CheckpointReport, VmError> {
    let GroupReport {
        crashed,
        failovers,
        reigns,
        standby,
        world,
        standby_killed_at,
        degraded_at,
        reintegrated,
        ..
    } = group;
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
    let reintegrated_at = reintegrated.first().copied();
    Ok(CheckpointReport {
        pair: PairReport {
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
        },
        backup_killed_at: standby_killed_at,
        degraded_entered_at: degraded_at,
        reintegrated_at,
        reintegrated: reintegrated_at.is_some(),
    })
}
