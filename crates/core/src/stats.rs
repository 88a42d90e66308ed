//! Replication statistics — the raw material for the paper's Table 2.

use crate::records::Record;

/// Everything the primary counted while replicating one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Non-deterministic native methods intercepted ("NM").
    pub nm_intercepted: u64,
    /// Output commits performed ("NM Output Commits").
    pub output_commits: u64,
    /// Monitor acquisitions replicated ("Locks Acquired", lock-sync mode).
    pub locks_acquired: u64,
    /// Largest per-lock acquire sequence number seen ("Largest l_asn").
    pub largest_lasn: u64,
    /// Lock-acquisition records logged.
    pub lock_acq_records: u64,
    /// Lock-interval records logged (interval-compressed lock-sync).
    pub lock_interval_records: u64,
    /// Id-map records logged.
    pub id_map_records: u64,
    /// Thread-schedule records logged ("Reschedules", TS mode).
    pub sched_records: u64,
    /// Native-result records logged.
    pub native_result_records: u64,
    /// Side-effect-handler state records logged.
    pub se_state_records: u64,
    /// Output-commit records logged.
    pub output_commit_records: u64,
    /// Encoded bytes of lock-acquisition records.
    pub lock_acq_bytes: u64,
    /// Encoded bytes of lock-interval records.
    pub lock_interval_bytes: u64,
    /// Encoded bytes of id-map records.
    pub id_map_bytes: u64,
    /// Encoded bytes of thread-schedule records.
    pub sched_bytes: u64,
    /// Encoded bytes of native-result records.
    pub native_result_bytes: u64,
    /// Encoded bytes of side-effect-handler state records.
    pub se_state_bytes: u64,
    /// Encoded bytes of output-commit records.
    pub output_commit_bytes: u64,
    /// Encoded bytes of heartbeat frames.
    pub heartbeat_bytes: u64,
    /// Total payload bytes logged (record bodies plus, under the compact
    /// codec, batch-frame headers).
    pub bytes_logged: u64,
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Failure-detector heartbeats sent (not counted as logged messages).
    pub heartbeats: u64,
    /// Epoch checkpoints cut (snapshot taken, log prefix truncated).
    pub epochs_cut: u64,
    /// Flush count at each epoch cut, in cut order — the exact epoch
    /// boundaries, so crashpoint sweeps can target them precisely.
    pub epoch_cut_flushes: Vec<u64>,
    /// Epochs the backup acknowledged as absorbed (driver-relayed).
    pub epochs_acked: u64,
    /// Peak send-side channel depth sampled at flush time (unacked frames
    /// on a reliable transport, in-flight frames on a perfect one). Link 0
    /// only: a group primary's other fan-out links are not sampled.
    pub peak_send_window: u64,
    /// Peak retained-suffix size in frames — the re-integration replay
    /// buffer, truncated at every epoch cut, so with checkpointing enabled
    /// this is bounded by one epoch.
    pub peak_suffix_frames: u64,
    /// Peak retained-suffix size in bytes.
    pub peak_suffix_bytes: u64,
    /// Serialized length of the latest epoch cut's snapshot (counted, not
    /// built, when nothing ships it).
    pub snapshot_bytes: u64,
    /// Snapshot chunks shipped (re-integration and cold checkpointing).
    pub snapshot_chunks_sent: u64,
    /// Outputs committed while running degraded (backup dead, ack waits
    /// skipped) — the 1-fault-tolerance gap the run accumulated.
    pub degraded_outputs: u64,
    /// Backup-side: peak count of received-but-unconsumed records (the
    /// standby's live log memory).
    pub peak_backup_pending: u64,
    /// Digest vote frames sent (BFT-lite voting mode, per link).
    pub votes_sent: u64,
    /// Record-frame copies this replica's own send path byzantine-flipped
    /// (fault injection; zero on an honest replica).
    pub byzantine_flips: u64,
    /// Output commits refused because the digest-vote quorum was out of
    /// reach — the primary demoted itself instead of releasing the output.
    pub byzantine_demotions: u64,
    /// Per-output-commit samples, in commit order: `(release instant ns,
    /// pessimistic ack wait ns)`. The release instant is when the output
    /// became performable (after the ack wait, or immediately when
    /// degraded or on a promoted backup's live phase — those record a
    /// zero wait). Raw material for fleet-level output-commit latency
    /// percentiles.
    pub commit_samples: Vec<(u64, u64)>,
}

impl ReplicationStats {
    /// Total records logged ("Logged Messages").
    pub fn messages_logged(&self) -> u64 {
        self.lock_acq_records
            + self.lock_interval_records
            + self.id_map_records
            + self.sched_records
            + self.native_result_records
            + self.se_state_records
            + self.output_commit_records
    }

    /// Per-family record counts and encoded byte totals, for the Table 2
    /// bytes-per-record breakdown. Rows with zero records are included.
    pub fn family_bytes(&self) -> [(&'static str, u64, u64); 8] {
        [
            ("id-map", self.id_map_records, self.id_map_bytes),
            ("lock-acq", self.lock_acq_records, self.lock_acq_bytes),
            ("lock-interval", self.lock_interval_records, self.lock_interval_bytes),
            ("sched", self.sched_records, self.sched_bytes),
            ("nd-result", self.native_result_records, self.native_result_bytes),
            ("output-commit", self.output_commit_records, self.output_commit_bytes),
            ("se-state", self.se_state_records, self.se_state_bytes),
            ("heartbeat", self.heartbeats, self.heartbeat_bytes),
        ]
    }

    /// Counts one record about to be logged, with its encoded size.
    pub(crate) fn count_record(&mut self, rec: &Record, bytes: u64) {
        match rec {
            Record::IdMap { .. } => {
                self.id_map_records += 1;
                self.id_map_bytes += bytes;
            }
            Record::LockAcq { .. } => {
                self.lock_acq_records += 1;
                self.lock_acq_bytes += bytes;
            }
            Record::LockInterval { .. } => {
                self.lock_interval_records += 1;
                self.lock_interval_bytes += bytes;
            }
            Record::Sched { .. } => {
                self.sched_records += 1;
                self.sched_bytes += bytes;
            }
            Record::NativeResult { .. } => {
                self.native_result_records += 1;
                self.native_result_bytes += bytes;
            }
            Record::OutputCommit { .. } => {
                self.output_commit_records += 1;
                self.output_commit_bytes += bytes;
            }
            Record::SeState { .. } => {
                self.se_state_records += 1;
                self.se_state_bytes += bytes;
            }
            Record::Heartbeat { .. } => {
                self.heartbeats += 1;
                self.heartbeat_bytes += bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftjvm_vm::VtPath;

    #[test]
    fn counting_by_kind() {
        let mut s = ReplicationStats::default();
        let t = VtPath::root();
        s.count_record(&Record::IdMap { l_id: 0, t: t.clone(), t_asn: 1 }, 21);
        s.count_record(&Record::LockAcq { t: t.clone(), t_asn: 1, l_id: 0, l_asn: 1 }, 37);
        s.count_record(&Record::LockAcq { t: t.clone(), t_asn: 2, l_id: 0, l_asn: 2 }, 37);
        s.count_record(&Record::OutputCommit { t, seq: 1, output_id: 0 }, 25);
        assert_eq!(s.id_map_records, 1);
        assert_eq!(s.lock_acq_records, 2);
        assert_eq!(s.output_commit_records, 1);
        assert_eq!(s.messages_logged(), 4);
        assert_eq!(s.lock_acq_bytes, 74);
        assert_eq!(s.id_map_bytes, 21);
        let by_family = s.family_bytes();
        let total: u64 = by_family.iter().map(|(_, _, b)| b).sum();
        assert_eq!(total, 21 + 74 + 25);
    }
}
