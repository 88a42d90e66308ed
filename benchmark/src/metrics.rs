//! Every metric the benchmark reports: its name, unit and direction (the
//! table `BENCHMARK.json` is checked against), and how it is computed
//! from phase walls, simulated statistics and probes.
//!
//! Host wall-clock and simulated time never meet in one metric. Names
//! beginning `sim_`, and counts, are pure functions of the seed; every
//! other metric is host time, computed from the fast decile of each phase's
//! wall over the iterations (`setup_s`: the median of the set-ups).

use crate::probes::Probes;
use crate::sim::Sim;
use crate::stats::{exact_median, exact_percentile, fast_decile, median};
use crate::trace::Harness;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
    /// True when the value is a pure function of the seed.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound, exact: true }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, each reported by every workload.
pub const END_TO_END: [Def; 9] = [
    host("setup_s", "s", Lower, 0.25),
    host("base_instr_per_s", "1/s", Higher, 0.25),
    host("replicated_instr_per_s", "1/s", Higher, 0.25),
    host("failover_wall_ms", "ms", Lower, 0.25),
    host("recovery_wall_ms", "ms", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.15),
    exact("sim_overhead_ratio", "ratio", Lower, 0.20),
    exact("sim_failover_ms", "sim_ms", Lower, 0.25),
    exact("log_bytes_per_kinstr", "B/kinstr", Lower, 0.10),
];

/// The per-layer metrics (layer = module name before the dot).
pub const PER_LAYER: [Def; 69] = [
    host("vm.dispatch_ns_per_instr", "ns", Lower, 0.0),
    host("vm.new_us", "us", Lower, 0.0),
    host("vm.snapshot_take_mb_per_s", "MB/s", Higher, 0.0),
    host("vm.snapshot_restore_mb_per_s", "MB/s", Higher, 0.0),
    exact("vm.snapshot_bytes", "B", Lower, 0.0),
    host("workloads.build_ms", "ms", Lower, 0.0),
    host("codec.encode_fixed_ns_per_record", "ns", Lower, 0.0),
    host("codec.encode_compact_ns_per_record", "ns", Lower, 0.0),
    host("codec.decode_fixed_ns_per_record", "ns", Lower, 0.0),
    host("codec.decode_compact_ns_per_record", "ns", Lower, 0.0),
    host("codec.seal_ns_per_frame", "ns", Lower, 0.0),
    host("codec.open_ns_per_frame", "ns", Lower, 0.0),
    host("codec.crc32c_mb_per_s", "MB/s", Higher, 0.0),
    host("codec.flush_digest_ns_per_frame", "ns", Lower, 0.0),
    exact("codec.bytes_per_record_fixed", "B", Lower, 0.0),
    exact("codec.bytes_per_record_compact", "B", Lower, 0.0),
    host("primary.emit_ns_per_record", "ns", Lower, 0.0),
    exact("primary.records", "count", Lower, 0.0),
    exact("primary.frames", "count", Lower, 0.0),
    exact("primary.flushes", "count", Lower, 0.0),
    exact("primary.bytes_logged", "B", Lower, 0.0),
    exact("primary.output_commits", "count", Higher, 0.0),
    exact("primary.sim_commit_p99_us", "sim_us", Lower, 0.0),
    host("primary.link_clean_ns_per_frame", "ns", Lower, 0.0),
    host("primary.link_lossy_ns_per_frame", "ns", Lower, 0.0),
    exact("primary.retransmit_ratio", "ratio", Lower, 0.0),
    host("netsim.channel_ns_per_msg", "ns", Lower, 0.0),
    host("netsim.lossy_ns_per_msg", "ns", Lower, 0.0),
    host("netsim.trunk_admit_ns", "ns", Lower, 0.0),
    host("netsim.trunk_merge_ns_per_interval", "ns", Lower, 0.0),
    exact("netsim.drops", "count", Lower, 0.0),
    exact("netsim.dup_deliveries", "count", Lower, 0.0),
    exact("netsim.corrupted_frames", "count", Lower, 0.0),
    exact("netsim.nacks", "count", Lower, 0.0),
    host("backup.log_decode_ns_per_record", "ns", Lower, 0.0),
    host("backup.replay_ns_per_record", "ns", Lower, 0.0),
    host("backup.recvwindow_ns_per_frame", "ns", Lower, 0.0),
    host("pair.cold_wall_ms", "ms", Lower, 0.0),
    host("pair.hot_wall_ms", "ms", Lower, 0.0),
    host("pair.cold_residual_share", "ratio", Lower, 0.0),
    host("pair.hot_residual_share", "ratio", Lower, 0.0),
    host("group.fanout_wall_ratio", "ratio", Lower, 0.0),
    exact("group.failovers", "count", Higher, 0.0),
    exact("group.evictions", "count", Lower, 0.0),
    exact("group.votes_sent", "count", Lower, 0.0),
    exact("group.sim_detection_ms", "sim_ms", Lower, 0.0),
    exact("group.sim_suffix_replay_ms", "sim_ms", Lower, 0.0),
    host("fleet.wall_ms_t1", "ms", Lower, 0.0),
    host("fleet.wall_ms_tn", "ms", Lower, 0.0),
    host("fleet.faultfree_wall_ms", "ms", Lower, 0.0),
    host("fleet.pair_us", "us", Lower, 0.0),
    host("fleet.sim_ms_per_wall_ms", "ratio", Higher, 0.0),
    exact("fleet.completed", "count", Higher, 0.0),
    exact("fleet.divergent", "count", Lower, 0.0),
    exact("fleet.lost", "count", Lower, 0.0),
    exact("fleet.failovers_absorbed", "count", Higher, 0.0),
    exact("fleet.reintegrated", "count", Higher, 0.0),
    exact("fleet.backlog_peak", "count", Lower, 0.0),
    exact("fleet.trunk_busy_share", "ratio", Lower, 0.0),
    exact("parallel.windows", "count", Lower, 0.0),
    exact("parallel.barrier_waits", "count", Lower, 0.0),
    exact("parallel.merged_intervals", "count", Lower, 0.0),
    host("parallel.speedup_tn", "ratio", Higher, 0.0),
    host("share.base", "ratio", Higher, 0.0),
    host("share.primary_extra", "ratio", Lower, 0.0),
    host("share.decode", "ratio", Lower, 0.0),
    host("share.replay_extra", "ratio", Lower, 0.0),
    host("share.driver_residual", "ratio", Lower, 0.0),
    host("trace.overhead_share", "ratio", Lower, 0.0),
];

/// Per-layer metrics that are not measurements on a one-core host.
pub const NEEDS_THREADS: [&str; 2] = ["fleet.wall_ms_tn", "parallel.speedup_tn"];

/// One computed metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Its table row.
    pub def: Def,
    /// The reported value.
    pub value: f64,
    /// Host-time metrics measured once per iteration: the per-iteration
    /// values behind it, for the noise report.
    pub samples: Vec<f64>,
}

/// One run's measurements: phase walls and the simulated side.
#[derive(Debug, Clone, Copy)]
pub struct RunData<'a> {
    /// Phase wall samples.
    pub h: &'a Harness,
    /// Simulated statistics of one iteration (all iterations agree).
    pub sim: &'a Sim,
}

impl RunData<'_> {
    /// Wall of `phase`, seconds: the fast decile over iterations (see
    /// [`fast_decile`] for why not the median).
    pub fn m(&self, phase: &str) -> f64 {
        let s = self.h.samples(phase);
        assert!(!s.is_empty(), "phase {phase} never ran");
        fast_decile(s)
    }

    fn cases(&self) -> f64 {
        self.sim.overhead.len().max(1) as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one run.
pub fn end_to_end(run: RunData<'_>, setup_secs: &[f64]) -> Vec<Measured> {
    let sim = run.sim;
    let instr = sim.instructions as f64;
    let per = |phase: &str, f: &dyn Fn(f64) -> f64| -> (f64, Vec<f64>) {
        (f(run.m(phase)), run.h.samples(phase).iter().map(|&s| f(s)).collect())
    };
    let geomean = (sim.overhead.iter().map(|&(b, p)| (p as f64 / b as f64).ln()).sum::<f64>()
        / sim.overhead.len().max(1) as f64)
        .exp();
    let one = |v: f64| (v, Vec::new());
    END_TO_END
        .iter()
        .map(|&def| {
            let (value, samples) = match def.name {
                "setup_s" => (median(setup_secs), setup_secs.to_vec()),
                "base_instr_per_s" => per("base", &|s| instr / s),
                "replicated_instr_per_s" => per("ff", &|s| instr / s),
                "failover_wall_ms" => per("failover", &|s| s * 1e3),
                "recovery_wall_ms" => per("replay", &|s| s * 1e3),
                "peak_rss_mb" => one(peak_rss_mb()),
                "sim_overhead_ratio" => one(geomean),
                "sim_failover_ms" => one(exact_median(&sim.failover_ns) / 1e6),
                "log_bytes_per_kinstr" => one(sim.bytes_logged as f64 * 1e3 / instr),
                other => unreachable!("{other} has no formula"),
            };
            Measured { def, value, samples }
        })
        .collect()
}

/// What the per-layer metrics are computed from. `group` and `fleet` are
/// the workload's own run when it is `lossy_group` or `fleet`, and the
/// small probe instance of that workload otherwise.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs<'a> {
    /// The workload's traced run.
    pub main: RunData<'a>,
    /// A replica-group run.
    pub group: RunData<'a>,
    /// A fleet run.
    pub fleet: RunData<'a>,
    /// The layer probes.
    pub probes: &'a Probes,
    /// Median program assembly time of the set-up, ms.
    pub build_ms: f64,
    /// Recorded iteration wall over unrecorded iteration wall, minus one.
    pub trace_overhead: f64,
}

/// The per-layer metrics of one traced run.
pub fn per_layer(x: LayerInputs<'_>) -> Vec<Measured> {
    let LayerInputs { main, group, fleet, probes: p, .. } = x;
    let sim = main.sim;
    let records = sim.records.max(1) as f64;
    let per_record = p.records.max(1) as f64;
    let ns_per = |probe: &str, n: usize| p.secs(probe) * 1e9 / n.max(1) as f64;
    let mut waits = sim.commit_wait_ns.clone();
    waits.sort_unstable();
    let commit_p99 = sim.fleet_commit_p99_ns.unwrap_or_else(|| exact_percentile(&waits, 99));
    let g = group.sim.group.clone().unwrap_or_default();
    let f = fleet.sim.fleet.clone().unwrap_or_default();
    let (base, primary, replay, ff) =
        (main.m("base"), main.m("primary"), main.m("replay"), main.m("ff"));
    PER_LAYER
        .iter()
        .map(|&def| {
            let value = match def.name {
                "vm.dispatch_ns_per_instr" => base * 1e9 / sim.instructions as f64,
                "vm.new_us" => main.m("vm_new") * 1e6 / main.cases(),
                "vm.snapshot_take_mb_per_s" => {
                    p.snapshot_bytes as f64 / p.secs("vm.snapshot_take") / 1e6
                }
                "vm.snapshot_restore_mb_per_s" => {
                    p.snapshot_bytes as f64 / p.secs("vm.snapshot_restore") / 1e6
                }
                "vm.snapshot_bytes" => p.snapshot_bytes as f64,
                "workloads.build_ms" => x.build_ms,
                "codec.encode_fixed_ns_per_record" => ns_per("codec.encode_fixed", p.records),
                "codec.encode_compact_ns_per_record" => ns_per("codec.encode_compact", p.records),
                "codec.decode_fixed_ns_per_record" => ns_per("codec.decode_fixed", p.records),
                "codec.decode_compact_ns_per_record" => ns_per("codec.decode_compact", p.records),
                "codec.seal_ns_per_frame" => ns_per("codec.seal", p.records),
                "codec.open_ns_per_frame" => ns_per("codec.open", p.records),
                "codec.crc32c_mb_per_s" => p.crc_bytes as f64 / p.secs("codec.crc32c") / 1e6,
                "codec.flush_digest_ns_per_frame" => ns_per("codec.flush_digest", p.records),
                "codec.bytes_per_record_fixed" => p.fixed_bytes as f64 / per_record,
                "codec.bytes_per_record_compact" => p.compact_bytes as f64 / per_record,
                "primary.emit_ns_per_record" => (primary - base) * 1e9 / records,
                "primary.records" => sim.records as f64,
                "primary.frames" => sim.frames as f64,
                "primary.flushes" => sim.flushes as f64,
                "primary.bytes_logged" => sim.bytes_logged as f64,
                "primary.output_commits" => sim.output_commits as f64,
                "primary.sim_commit_p99_us" => commit_p99 as f64 / 1e3,
                "primary.link_clean_ns_per_frame" => ns_per("primary.link_clean", p.link_frames),
                "primary.link_lossy_ns_per_frame" => ns_per("primary.link_lossy", p.link_frames),
                "primary.retransmit_ratio" => p.retransmits as f64 / p.link_frames.max(1) as f64,
                "netsim.channel_ns_per_msg" => ns_per("netsim.channel", p.link_frames),
                "netsim.lossy_ns_per_msg" => ns_per("netsim.lossy", p.link_frames),
                "netsim.trunk_admit_ns" => ns_per("netsim.trunk_admit", p.trunk_admits),
                "netsim.trunk_merge_ns_per_interval" => {
                    ns_per("netsim.trunk_merge", p.trunk_intervals)
                }
                "netsim.drops" => sim.link.drops as f64,
                "netsim.dup_deliveries" => sim.link.dup_deliveries as f64,
                "netsim.corrupted_frames" => sim.link.corrupted_frames as f64,
                "netsim.nacks" => sim.link.nacks as f64,
                "backup.log_decode_ns_per_record" => main.m("backup_decode") * 1e9 / records,
                "backup.replay_ns_per_record" => {
                    (replay - base - main.m("backup_decode")) * 1e9 / records
                }
                "backup.recvwindow_ns_per_frame" => ns_per("backup.recvwindow", p.records),
                "pair.cold_wall_ms" => main.m("cold") * 1e3,
                "pair.hot_wall_ms" => ff * 1e3,
                "pair.cold_residual_share" => (main.m("cold") - primary) / main.m("cold"),
                "pair.hot_residual_share" => (ff - primary - replay) / ff,
                "group.fanout_wall_ratio" => group.m("ff") / group.m("pair_hot"),
                "group.failovers" => g.failovers as f64,
                "group.evictions" => g.evictions as f64,
                "group.votes_sent" => g.votes_sent as f64,
                "group.sim_detection_ms" => exact_median(&g.detection_ns) / 1e6,
                "group.sim_suffix_replay_ms" => exact_median(&g.suffix_ns) / 1e6,
                "fleet.wall_ms_t1" => fleet.m("failover") * 1e3,
                "fleet.wall_ms_tn" => fleet.m("mt") * 1e3,
                "fleet.faultfree_wall_ms" => fleet.m("ff") * 1e3,
                "fleet.pair_us" => fleet.m("failover") * 1e6 / f.pairs.max(1) as f64,
                "fleet.sim_ms_per_wall_ms" => {
                    f.makespan_ns as f64 / 1e6 / (fleet.m("failover") * 1e3)
                }
                "fleet.completed" => f.completed as f64,
                "fleet.divergent" => f.divergent as f64,
                "fleet.lost" => f.lost as f64,
                "fleet.failovers_absorbed" => f.failovers_absorbed as f64,
                "fleet.reintegrated" => f.reintegrated as f64,
                "fleet.backlog_peak" => f.backlog_peak as f64,
                "fleet.trunk_busy_share" => f.trunk_busy_ns as f64 / f.makespan_ns.max(1) as f64,
                "parallel.windows" => f.windows as f64,
                "parallel.barrier_waits" => f.barrier_waits as f64,
                "parallel.merged_intervals" => f.merged_intervals as f64,
                "parallel.speedup_tn" => fleet.m("failover") / fleet.m("mt"),
                // Both replicas execute the program, so `base` is in `ff` twice.
                "share.base" => 2.0 * base / ff,
                "share.primary_extra" => (primary - base) / ff,
                "share.decode" => main.m("decode") / ff,
                "share.replay_extra" => (replay - base - main.m("decode")) / ff,
                "share.driver_residual" => (ff - primary - replay) / ff,
                "trace.overhead_share" => x.trace_overhead,
                other => unreachable!("{other} has no formula"),
            };
            Measured { def, value, samples: Vec::new() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn table_obeys_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for n in NEEDS_THREADS {
            assert!(PER_LAYER.iter().any(|d| d.name == n));
        }
    }

    #[test]
    fn sim_names_are_exact_and_host_names_are_not() {
        for d in &END_TO_END {
            assert_eq!(d.exact, d.name.starts_with("sim_") || d.name == "log_bytes_per_kinstr");
        }
        for d in PER_LAYER.iter().filter(|d| d.unit == "count") {
            assert!(d.exact, "{} is a count", d.name);
        }
    }
}
