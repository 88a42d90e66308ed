//! What one iteration observed on the simulated side: counts, simulated
//! times, and a digest of every simulated statistic and output. All of it
//! is a pure function of the seed, so two iterations (and two commits
//! that did not change behaviour) must agree exactly.

use ftjvm_core::{FleetReport, GroupReport, PairReport, ReplicationStats};
use ftjvm_netsim::ChannelStats;

/// Failure descriptions kept for the report.
const NOTES: usize = 8;

/// Operations attempted and failed (see README: an operation is one
/// replicated run, or one slot of a fleet run).
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, produced wrong or duplicated output, or
    /// whose simulated digest changed between iterations.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Ops {
    /// Records one operation; `problem` is `Some` when it failed.
    pub fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(format!("{what}: {p}"));
        }
    }

    /// Adds another tally's counts and (up to the cap) its notes.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Records a failure that is not a new attempt.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < NOTES {
            self.notes.push(note);
        }
    }
}

/// What one iteration hands back: its simulated side and its operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Simulated statistics.
    pub sim: Sim,
    /// Operations attempted and failed.
    pub ops: Ops,
}

/// FNV-1a over everything simulated that an iteration saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` in.
    pub fn feed(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(0xff)) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Group-layer simulated statistics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GroupSim {
    /// Failovers (promotions and vote demotions).
    pub failovers: u64,
    /// Standbys evicted by equivocation or death.
    pub evictions: u64,
    /// Digest vote frames sent.
    pub votes_sent: u64,
    /// Detection latency of each failover, ns.
    pub detection_ns: Vec<u64>,
    /// Suffix replay time of each failover, ns.
    pub suffix_ns: Vec<u64>,
}

/// Fleet-layer simulated statistics of the faulted run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FleetSim {
    /// Slots launched.
    pub pairs: u64,
    /// Slots that ran to a report.
    pub completed: u64,
    /// Survivors whose output failed verification (must be zero).
    pub divergent: u64,
    /// Slots that lost every replica (outside the 1-fault model).
    pub lost: u64,
    /// Failovers absorbed with verified output.
    pub failovers_absorbed: u64,
    /// Slots that re-integrated a replacement standby.
    pub reintegrated: u64,
    /// Peak outstanding requests.
    pub backlog_peak: u64,
    /// Simulated makespan, ns.
    pub makespan_ns: u64,
    /// Simulated trunk busy time, ns.
    pub trunk_busy_ns: u64,
    /// Scheduler windows.
    pub windows: u64,
    /// Barrier crossings.
    pub barrier_waits: u64,
    /// Trunk intervals merged at barriers.
    pub merged_intervals: u64,
}

/// The simulated side of one iteration.
#[derive(Debug, Default, Clone)]
pub struct Sim {
    /// Application instructions of the unreplicated runs.
    pub instructions: u64,
    /// Per case: simulated total of the unreplicated run and of the
    /// staged primary run, ns.
    pub overhead: Vec<(u64, u64)>,
    /// Records logged by the staged primary runs.
    pub records: u64,
    /// Frames the staged primary runs put on the channel.
    pub frames: u64,
    /// Buffer flushes of the staged primary runs.
    pub flushes: u64,
    /// Payload bytes logged by the staged primary runs.
    pub bytes_logged: u64,
    /// Output commits of the staged primary runs.
    pub output_commits: u64,
    /// Pessimistic ack waits of the failure-free replicated runs, ns.
    pub commit_wait_ns: Vec<u64>,
    /// The fleet's own p99 (arrival to commit), which replaces the
    /// pooled ack-wait p99 on the `fleet` workload.
    pub fleet_commit_p99_ns: Option<u64>,
    /// Failover latency (detection + replay left) of every failover, ns.
    pub failover_ns: Vec<u64>,
    /// Link counters summed over the replicated runs.
    pub link: ChannelStats,
    /// Group statistics, when the iteration ran groups.
    pub group: Option<GroupSim>,
    /// Fleet statistics, when the iteration ran a fleet.
    pub fleet: Option<FleetSim>,
    /// Digest of all of the above plus every console.
    pub digest: Digest,
}

impl Sim {
    /// Folds a failure-free or failed-over pair run in.
    pub fn add_pair(&mut self, tag: &str, r: &PairReport, failure_free: bool) {
        if failure_free {
            self.commit_wait_ns.extend(r.primary_stats.commit_samples.iter().map(|s| s.1));
        }
        if r.crashed {
            self.failover_ns.push(r.failover_latency.as_nanos());
        }
        add_link(&mut self.link, &r.channel);
        self.digest.feed(&format!(
            "{tag} {:?} {:?} {:?} {:?} {} {} {} {:?} {:?}",
            r.primary.acct,
            r.primary_stats,
            r.backup.as_ref().map(|b| &b.acct),
            r.backup_stats,
            r.detection_latency,
            r.recovery_replay_time,
            r.failover_latency,
            r.channel,
            r.console(),
        ));
    }

    /// Folds a group run in.
    pub fn add_group(&mut self, tag: &str, r: &GroupReport, failure_free: bool) {
        let g = self.group.get_or_insert_with(GroupSim::default);
        g.failovers += r.failovers.len() as u64;
        g.evictions += r.evictions;
        for f in &r.failovers {
            g.detection_ns.push(f.detection_latency.as_nanos());
            g.suffix_ns.push(f.suffix_replay.as_nanos());
            self.failover_ns.push((f.detection_latency + f.suffix_replay).as_nanos());
        }
        for reign in &r.reigns {
            g.votes_sent += reign.stats.votes_sent;
            if failure_free {
                self.commit_wait_ns.extend(reign.stats.commit_samples.iter().map(|s| s.1));
            }
            for ch in &reign.channels {
                add_link(&mut self.link, ch);
            }
        }
        self.digest.feed(&format!(
            "{tag} {:?} {} {:?} {} {:?} {:?}",
            r.final_report.acct,
            r.survivor,
            r.failovers,
            r.evictions,
            r.reigns,
            r.console(),
        ));
    }

    /// Folds the staged primary run of one case in.
    pub fn add_staged(
        &mut self,
        tag: &str,
        base_ns: u64,
        primary_ns: u64,
        frames: usize,
        stats: &ReplicationStats,
    ) {
        self.overhead.push((base_ns, primary_ns));
        self.records += stats.messages_logged();
        self.frames += frames as u64;
        self.flushes += stats.flushes;
        self.bytes_logged += stats.bytes_logged;
        self.output_commits += stats.output_commits;
        self.digest.feed(&format!("{tag} {base_ns} {primary_ns} {frames} {stats:?}"));
    }
}

fn add_link(into: &mut ChannelStats, s: &ChannelStats) {
    into.messages_sent += s.messages_sent;
    into.bytes_sent += s.bytes_sent;
    into.ack_round_trips += s.ack_round_trips;
    into.drops += s.drops;
    into.dup_deliveries += s.dup_deliveries;
    into.corrupted_frames += s.corrupted_frames;
    into.reordered += s.reordered;
    into.retransmits += s.retransmits;
    into.nacks += s.nacks;
}

/// Everything observable about a fleet run except pool layout and host
/// time — what must be identical at every thread count.
pub fn fleet_digest(r: &FleetReport) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {:?}",
        r.completed,
        r.divergent,
        r.lost,
        r.failovers_absorbed,
        r.backups_killed,
        r.degraded_entries,
        r.reintegrated,
        r.served_requests,
        r.total_requests,
        r.backlog_peak,
        r.commit_p50,
        r.commit_p99,
        r.commit_max,
        r.makespan,
        r.shared,
        r.outcomes,
    )
}

/// The fleet-layer statistics of `r`.
pub fn fleet_sim(r: &FleetReport) -> FleetSim {
    FleetSim {
        pairs: u64::from(r.pairs),
        completed: u64::from(r.completed),
        divergent: u64::from(r.divergent),
        lost: u64::from(r.lost),
        failovers_absorbed: u64::from(r.failovers_absorbed),
        reintegrated: u64::from(r.reintegrated),
        backlog_peak: r.backlog_peak,
        makespan_ns: r.makespan.as_nanos(),
        trunk_busy_ns: r.shared.map_or(0, |s| s.busy.as_nanos()),
        windows: r.pool.windows,
        barrier_waits: r.pool.barrier_waits,
        merged_intervals: r.pool.merged_intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_and_order() {
        let mut a = Digest::default();
        a.feed("ab");
        a.feed("c");
        let mut b = Digest::default();
        b.feed("a");
        b.feed("bc");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.feed("ab");
        c.feed("c");
        assert_eq!(a, c);
    }

    #[test]
    fn ops_count_failures_and_cap_notes() {
        let mut ops = Ops::default();
        ops.record("ff", None);
        for i in 0..20 {
            ops.record("ff", Some(format!("bad {i}")));
        }
        assert_eq!(ops.attempted, 21);
        assert_eq!(ops.failed, 20);
        assert_eq!(ops.notes.len(), 8);
        let mut total = Ops::default();
        total.record("x", Some("first".into()));
        total.merge(ops);
        assert_eq!((total.attempted, total.failed, total.notes.len()), (22, 21, 8));
        assert_eq!(total.notes[0], "x: first");
    }
}
