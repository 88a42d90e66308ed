//! The five workloads. Each is a set of *cases*; one iteration times the
//! same phases for every case, from outside, by calling the crates'
//! public entry points:
//!
//! | phase | call |
//! |---|---|
//! | `base` | `FtJvm::run_unreplicated` |
//! | `primary` | `ReplicaRuntime::run_primary_to_log(FaultPlan::None)` |
//! | `decode` | `codec::decode_frames` over those frames |
//! | `replay` | `ReplicaRuntime::replay_log` over those frames (the whole log: worst-case cold recovery) |
//! | `ff` | failure-free replicated run (`run_replicated` hot, `run_group`, `run_fleet`) |
//! | `failover` | the same run with the primary killed |
//!
//! A traced run adds `cold`, `backup_decode`, `vm_new`, and where they
//! exist `pair_hot` and `mt`, which only per-layer metrics use.

use crate::sim::{fleet_digest, fleet_sim, Tally};
use crate::trace::Harness;
use bytes::Bytes;
use ftjvm_core::fleet::journal_program;
use ftjvm_core::group::GroupConfig;
use ftjvm_core::{
    run_fleet, split_seed, BackupLog, FleetConfig, FleetReport, FtConfig, FtJvm, GroupReport,
    LagBudget, PairPlan, PairReport, ReplicationMode,
};
use ftjvm_netsim::{FailureDetector, FaultPlan, NetFaultPlan, SimTime, WireCodec};
use ftjvm_vm::{Program, World};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CPU-bound programs: the interpreter does nearly all the work.
    Compute,
    /// Lock-heavy programs, one message per record.
    LockstormFixed,
    /// The same programs, delta-encoded batch frames.
    LockstormCompact,
    /// Replica groups over an adversarial link.
    LossyGroup,
    /// Hundreds of short pairs on one scheduler and one trunk.
    Fleet,
}

/// Name, kind, and the reason the workload exists (copied into
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, Kind, &str); 5] = [
    (
        "compute",
        Kind::Compute,
        "CPU-bound analogs, a few hundred log records per 10^7 instructions: only the interpreter matters, a data-plane change must show no change here",
    ),
    (
        "lockstorm_fixed",
        Kind::LockstormFixed,
        "db and jack under lock-sync with the fixed codec, 81k records as 81k messages: per-frame costs of primary, channel, decode and replay dominate",
    ),
    (
        "lockstorm_compact",
        Kind::LockstormCompact,
        "the same 81k records in about 70 delta-encoded batch frames: per-record codec state dominates and per-frame costs vanish",
    ),
    (
        "lossy_group",
        Kind::LossyGroup,
        "1000 committed journal writes by 3- and 5-replica groups over a 10-20% loss link with kills and a byzantine primary: retransmission, snapshots, votes, group stepping",
    ),
    (
        "fleet",
        Kind::Fleet,
        "512 short hot pairs with crashes, kills and a rack partition on one scheduler and a shared trunk: construction, pair stepping, windows and the trunk calendar",
    ),
];

/// Looks a workload up by name.
pub fn kind_of(name: &str) -> Option<Kind> {
    WORKLOADS.iter().find(|(n, _, _)| *n == name).map(|&(_, k, _)| k)
}

/// Full size, or the small size used by probes and `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as specified.
    Full,
    /// One kill chain per group case, 64-pair fleet, scale-1 programs.
    Small,
}

/// Worker threads for the multi-threaded fleet run: never more than the
/// host has, capped at 4. With one core the result is not a measurement
/// of parallelism (see [`host_can_show_threads`]).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

/// False on a one-core host, where thread-scaling numbers are reported
/// as `unmeasured`.
pub fn host_can_show_threads() -> bool {
    host_threads() >= 2
}

/// The quantum the repo's figure binaries use (`bench_config`): about
/// 5 ms of simulated CPU per timeslice.
fn bench_config(mode: ReplicationMode, codec: WireCodec, scale: i64) -> FtConfig {
    let mut cfg = FtConfig { mode, codec, ..FtConfig::default() };
    cfg.vm.quantum = 40_000;
    cfg.vm.quantum_jitter = 20_000;
    cfg.vm.entry_arg = scale;
    cfg
}

/// Every seed a case uses comes from the run seed.
fn seeded(mut cfg: FtConfig, seed: u64, case: u32) -> FtConfig {
    cfg.primary_seed = split_seed(seed, case, 0);
    cfg.backup_seed = split_seed(seed, case, 1);
    cfg.primary_env_seed = split_seed(seed, case, 2);
    cfg.backup_env_seed = split_seed(seed, case, 3);
    cfg
}

/// The adversarial link of `lossy_group`: `drop` loss, 5% duplication, 2%
/// corruption, 10% reordering, 300 us jitter.
pub fn lossy_plan(seed: u64, drop: f64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        drop,
        duplicate: 0.05,
        corrupt: 0.02,
        reorder: 0.10,
        jitter: SimTime::from_micros(300),
        ..NetFaultPlan::default()
    }
}

/// `None` when the run's observable output is right.
fn output_problem(
    console: &[String],
    want: &[String],
    duplicates: Result<(), u64>,
) -> Option<String> {
    if let Err(id) = duplicates {
        return Some(format!("output {id} performed twice"));
    }
    (console != want).then(|| {
        let at = console.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
        format!(
            "console differs from the reference ({} vs {} lines; line {at}: {:?} vs {:?})",
            console.len(),
            want.len(),
            console.get(at),
            want.get(at)
        )
    })
}

fn pair_problem(r: &PairReport, want: &[String], must_crash: bool) -> Option<String> {
    if must_crash && !(r.crashed && r.backup.is_some()) {
        return Some("the fault plan did not fire or nobody took over".into());
    }
    output_problem(&r.console(), want, r.check_no_duplicate_outputs())
}

fn group_problem(r: &GroupReport, want: &[String], failovers: usize) -> Option<String> {
    if !r.completed {
        return Some("group did not complete".into());
    }
    if r.failovers.len() < failovers {
        return Some(format!("{} of {failovers} failovers happened", r.failovers.len()));
    }
    output_problem(&r.console(), want, r.check_no_duplicate_outputs())
}

/// One program under one configuration, with its reference run.
struct Case {
    name: String,
    program: Arc<Program>,
    cfg: FtConfig,
    console: Vec<String>,
    /// Output commits of the reference run (places group kills).
    commits: u64,
    /// Instruction counts at which the `failover` phase kills the
    /// primary, one run each.
    kills: [u64; KILLS],
}

impl Case {
    /// `kill_seed` places the pair kills: the fault schedule is an input
    /// made from the seed, one kill in each third of the run's middle
    /// fifth (40% to 60% of the instructions).
    fn new(name: String, program: Arc<Program>, cfg: FtConfig, kill_seed: u64) -> Case {
        let (report, world) = FtJvm::new(program.clone(), cfg.clone())
            .run_unreplicated()
            .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
        assert!(report.uncaught.is_empty(), "{name}: reference run threw {:?}", report.uncaught);
        let console = world.borrow().console_texts();
        let band = 200 / KILLS as u64;
        let kills = std::array::from_fn(|k| {
            let per_mille = 400 + band * k as u64 + split_seed(kill_seed, k as u32, 0) % band;
            report.counters.instructions / 1000 * per_mille
        });
        Case { name, program, cfg, console, commits: report.counters.outputs, kills }
    }

    fn with(&self, edit: impl FnOnce(&mut FtConfig)) -> FtJvm {
        let mut cfg = self.cfg.clone();
        edit(&mut cfg);
        FtJvm::new(self.program.clone(), cfg)
    }

    /// `base`, `primary`, `decode`, `replay` — the staged path every
    /// pair-shaped case shares. `staged` is the configuration of the
    /// primary-to-log and replay halves.
    fn staged(&self, h: &mut Harness, staged: &FtJvm, extras: bool, t: &mut Tally) {
        let name = &self.name;
        let (base, _) = h.time("base", |_| staged.run_unreplicated());
        let (base, base_world) = base.unwrap_or_else(|e| panic!("{name}: base run failed: {e}"));
        assert_eq!(base_world.borrow().console_texts(), self.console, "{name}: base run drifted");
        t.sim.instructions += base.counters.instructions;

        let rt = staged.runtime();
        let world = World::shared();
        let (logged, _) = h.time("primary", |_| rt.run_primary_to_log(&world, FaultPlan::None));
        let (primary, frames, stats, channel) =
            logged.unwrap_or_else(|e| panic!("{name}: primary run failed: {e}"));
        t.sim.add_staged(
            name,
            base.acct.total().as_nanos(),
            primary.acct.total().as_nanos(),
            frames.len(),
            &stats,
        );
        t.sim.digest.feed(&format!("{channel:?}"));

        let copy: Vec<Bytes> = frames.clone();
        let (decoded, _) = h.time("decode", |_| ftjvm_core::decode_frames(copy));
        let decoded = decoded.unwrap_or_else(|e| panic!("{name}: own log does not decode: {e}"));
        t.sim.digest.feed(&format!("decoded {}", decoded.len()));
        drop(decoded);

        if extras {
            let copy: Vec<Bytes> = frames.clone();
            let mut se = (staged.config().se_factory)();
            let (log, _) = h.time("backup_decode", |_| BackupLog::decode(copy, &mut se));
            let log = log.unwrap_or_else(|e| panic!("{name}: backup log does not decode: {e}"));
            t.sim.digest.feed(&format!("backup log {}", log.total_records()));
        }

        let (replayed, _) = h.time("replay", |_| rt.replay_log(&world, frames));
        let problem = match replayed {
            Err(e) => Some(e.to_string()),
            Ok((report, _, _)) => {
                t.sim.digest.feed(&format!("replay {:?}", report.acct));
                let w = world.borrow();
                let mut seen = std::collections::BTreeSet::new();
                let dup = w.console().iter().find(|l| !seen.insert(l.output_id));
                output_problem(
                    &w.console_texts(),
                    &self.console,
                    dup.map_or(Ok(()), |l| Err(l.output_id)),
                )
            }
        };
        t.ops.record(&format!("{name} replay"), problem);

        if extras {
            let (built, _) =
                h.time("vm_new", |_| rt.build_primary(&World::shared(), FaultPlan::None));
            drop(built.unwrap_or_else(|e| panic!("{name}: build_primary failed: {e}")));
        }
    }

    fn pair_run(&self, h: &mut Harness, phase: &'static str, jvm: &FtJvm, t: &mut Tally) {
        let must_crash = jvm.config().fault.is_armed();
        let (run, _) = h.time(phase, |_| jvm.run_replicated());
        let tag = format!("{} {phase}", self.name);
        let problem = match &run {
            Err(e) => Some(e.to_string()),
            Ok(r) => {
                t.sim.add_pair(&tag, r, phase == "ff");
                pair_problem(r, &self.console, must_crash)
            }
        };
        t.ops.record(&tag, problem);
    }

    /// One iteration of a plain pair case.
    fn pair_iteration(&self, h: &mut Harness, extras: bool, t: &mut Tally) {
        self.staged(h, &self.with(|_| {}), extras, t);
        self.pair_run(h, "ff", &self.with(|c| c.lag_budget = LagBudget::Hot), t);
        for kill in self.kills {
            let failing = self.with(|c| {
                c.lag_budget = LagBudget::Hot;
                c.fault = FaultPlan::AfterInstructions(kill);
            });
            self.pair_run(h, "failover", &failing, t);
        }
        if extras {
            self.pair_run(h, "cold", &self.with(|_| {}), t);
        }
    }

    fn group_run(
        &self,
        h: &mut Harness,
        phase: &'static str,
        jvm: &FtJvm,
        gcfg: GroupConfig,
        failovers: usize,
        t: &mut Tally,
    ) {
        let (run, _) = h.time(phase, |_| jvm.run_group(gcfg));
        let tag = format!("{} {phase}", self.name);
        let problem = match &run {
            Err(e) => Some(e.to_string()),
            Ok(r) => {
                t.sim.add_group(&tag, r, phase == "ff");
                group_problem(r, &self.console, failovers)
            }
        };
        t.ops.record(&tag, problem);
    }

    /// One iteration of a replica-group case over the adversarial link.
    fn group_iteration(
        &self,
        h: &mut Harness,
        net_seed: u64,
        chains: u32,
        extras: bool,
        t: &mut Tally,
    ) {
        let light = lossy_plan(net_seed, 0.10);
        // The staged halves take the plain lossy pair path: epochs belong
        // to the co-simulated drivers, not to a primary run to its log.
        let staged = self.with(|c| {
            c.net_fault = light.clone();
            c.checkpoint_interval = None;
        });
        self.staged(h, &staged, extras, t);

        let ff = self.with(|c| c.net_fault = light.clone());
        self.group_run(h, "ff", &ff, GroupConfig::default(), 0, t);

        for chain in 0..chains {
            let heavy =
                self.with(|c| c.net_fault = lossy_plan(split_seed(net_seed, chain, 0), 0.20));
            let kills = vec![
                FaultPlan::BeforeOutput(self.commits / 5),
                FaultPlan::BeforeOutput(self.commits / 2),
                FaultPlan::BeforeOutput(self.commits * 4 / 5),
            ];
            let gcfg = GroupConfig { size: 5, kills, ..GroupConfig::default() };
            self.group_run(h, "failover", &heavy, gcfg, 3, t);
        }
        let byzantine = self.with(|c| {
            c.net_fault = NetFaultPlan { byzantine_at: vec![4], ..NetFaultPlan::default() };
        });
        let gcfg = GroupConfig { vote_quorum: Some(3), ..GroupConfig::default() };
        self.group_run(h, "failover", &byzantine, gcfg, 1, t);

        if extras {
            let hot = self.with(|c| {
                c.net_fault = light.clone();
                c.lag_budget = LagBudget::Hot;
            });
            self.pair_run(h, "pair_hot", &hot, t);
            self.pair_run(h, "cold", &self.with(|c| c.net_fault = light.clone()), t);
        }
    }
}

/// Kills per pair case and iteration. The default detector declares the
/// primary dead 100 to 150 simulated ms after the crash, depending on
/// where the crash falls between heartbeats; one kill per case would make
/// `sim_failover_ms` a draw from that range.
const KILLS: usize = 3;

/// Kill chains per group case and iteration at full size, each under
/// its own link seed: one chain gives three failovers, too few for a
/// median that holds still from seed to seed.
const CHAINS: u32 = 4;

/// Journal entries a group case commits. The small size keeps this
/// length and cuts the chain count instead: with a journal of 300 (kills
/// 60 to 90 commits apart, the repo's `group` binary's setting) about one
/// chain in twenty, over 40 seeds, ended one journal entry short or with
/// no live replica; with 1000, none of 1920 chains over 240 seeds did.
const JOURNAL: i64 = 1000;

fn journal() -> ftjvm_workloads::Workload {
    ftjvm_workloads::micro::file_journal(JOURNAL)
}

/// The fleet scenario and its per-slot plans.
struct FleetCase {
    faulted: FleetConfig,
    plans: Vec<PairPlan>,
    programs: BTreeMap<u64, Arc<Program>>,
}

impl FleetCase {
    fn new(seed: u64, pairs: u32) -> FleetCase {
        // The committed `full` scenario of the repo's fleet binary.
        let faulted = FleetConfig {
            pairs,
            seed,
            partition_rack: Some(5),
            threads: 1,
            ..FleetConfig::default()
        };
        let plans: Vec<PairPlan> = (0..pairs).map(|id| PairPlan::derive(&faulted, id)).collect();
        let mut programs = BTreeMap::new();
        for p in &plans {
            programs.entry(p.requests).or_insert_with(|| {
                journal_program(p.requests as i64).expect("journal program assembles")
            });
        }
        FleetCase { faulted, plans, programs }
    }

    /// The slot's pair run alone, staged: no fault, no epochs, cold.
    fn slot(&self, plan: &PairPlan) -> FtJvm {
        let cfg = FtConfig {
            fault: FaultPlan::None,
            checkpoint_interval: None,
            lag_budget: LagBudget::Cold,
            ..plan.ft_config(&self.faulted)
        };
        FtJvm::new(self.programs[&plan.requests].clone(), cfg)
    }

    fn fleet_run(
        &self,
        h: &mut Harness,
        phase: &'static str,
        cfg: &FleetConfig,
        t: &mut Tally,
    ) -> FleetReport {
        let (run, _) = h.time(phase, |_| run_fleet(cfg));
        let r = run.unwrap_or_else(|e| panic!("fleet {phase}: scheduler invariant broke: {e}"));
        t.ops.attempted += u64::from(r.pairs);
        for o in r.outcomes.iter().filter(|o| o.error.is_some() || (o.survived && !o.output_ok)) {
            t.ops.fail(format!(
                "fleet {phase} slot {}: {}",
                o.pair_id,
                o.error.as_deref().unwrap_or("survivor's output differs from the journal")
            ));
        }
        r
    }

    fn iteration(&self, h: &mut Harness, extras: bool, with_mt: bool, t: &mut Tally) {
        let slots: Vec<FtJvm> = self.plans.iter().map(|p| self.slot(p)).collect();

        let (bases, _) = h.time("base", |_| {
            slots.iter().map(|j| j.run_unreplicated().expect("journal runs").0).collect::<Vec<_>>()
        });
        let base_ns: u64 = bases.iter().map(|b| b.acct.total().as_nanos()).sum();
        t.sim.instructions += bases.iter().map(|b| b.counters.instructions).sum::<u64>();

        let worlds: Vec<_> = slots.iter().map(|_| World::shared()).collect();
        let (logs, _) = h.time("primary", |_| {
            slots
                .iter()
                .zip(&worlds)
                .map(|(j, w)| j.runtime().run_primary_to_log(w, FaultPlan::None).expect("primary"))
                .collect::<Vec<_>>()
        });
        let primary_ns: u64 = logs.iter().map(|l| l.0.acct.total().as_nanos()).sum();
        t.sim.overhead.push((base_ns, primary_ns));
        for (_, frames, stats, _) in &logs {
            t.sim.records += stats.messages_logged();
            t.sim.frames += frames.len() as u64;
            t.sim.flushes += stats.flushes;
            t.sim.bytes_logged += stats.bytes_logged;
            t.sim.output_commits += stats.output_commits;
        }
        t.sim.digest.feed(&format!("staged {base_ns} {primary_ns} {}", t.sim.bytes_logged));

        let copies: Vec<Vec<Bytes>> = logs.iter().map(|l| l.1.clone()).collect();
        let (decoded, _) = h.time("decode", |_| {
            copies
                .into_iter()
                .map(|f| ftjvm_core::decode_frames(f).expect("own log decodes").len())
                .sum::<usize>()
        });
        t.sim.digest.feed(&format!("decoded {decoded}"));

        if extras {
            let copies: Vec<Vec<Bytes>> = logs.iter().map(|l| l.1.clone()).collect();
            h.time("backup_decode", |_| {
                for (j, f) in slots.iter().zip(copies) {
                    let mut se = (j.config().se_factory)();
                    BackupLog::decode(f, &mut se).expect("backup log decodes");
                }
            });
        }

        let frames: Vec<Vec<Bytes>> = logs.into_iter().map(|l| l.1).collect();
        let (replays, _) = h.time("replay", |_| {
            slots
                .iter()
                .zip(&worlds)
                .zip(frames)
                .map(|((j, w), f)| j.runtime().replay_log(w, f).map(|r| r.0.acct.total()))
                .collect::<Vec<_>>()
        });
        for ((plan, world), replay) in self.plans.iter().zip(&worlds).zip(replays) {
            let problem = match replay {
                Err(e) => Some(e.to_string()),
                Ok(_) => (world.borrow().console_texts() != plan.expected_console())
                    .then(|| "replayed console differs from the journal".to_string()),
            };
            t.ops.record(&format!("fleet slot {} replay", plan.pair_id), problem);
        }

        let fault_free = FleetConfig {
            crash_per_mille: 0,
            kill_per_mille: 0,
            partition_rack: None,
            ..self.faulted.clone()
        };
        let ff = self.fleet_run(h, "ff", &fault_free, t);
        t.sim.digest.feed(&fleet_digest(&ff));

        let faulted = self.fleet_run(h, "failover", &self.faulted, t);
        let want = fleet_digest(&faulted);
        t.sim.digest.feed(&want);
        t.sim.failover_ns.extend(
            faulted
                .outcomes
                .iter()
                .filter(|o| o.crashed && o.output_ok)
                .map(|o| o.failover_latency.as_nanos()),
        );
        t.sim.fleet_commit_p99_ns = Some(faulted.commit_p99.as_nanos());
        t.sim.fleet = Some(fleet_sim(&faulted));

        if with_mt {
            let cfg = FleetConfig { threads: host_threads(), ..self.faulted.clone() };
            let mt = self.fleet_run(h, "mt", &cfg, t);
            if fleet_digest(&mt) != want {
                t.ops
                    .fail(format!("fleet results at {} threads differ from 1 thread", cfg.threads));
            }
        }

        if extras {
            h.time("cold", |_| {
                for j in &slots {
                    j.run_replicated().expect("cold pair runs");
                }
            });
            let rt = slots[0].runtime();
            h.time("vm_new", |_| rt.build_primary(&World::shared(), FaultPlan::None).map(drop))
                .0
                .expect("build_primary");
        }
    }
}

/// (program, scale, technique) of one case.
type Spec = (fn() -> ftjvm_workloads::Workload, i64, ReplicationMode);

enum Cases {
    Pairs(Vec<Case>),
    Groups { cases: Vec<Case>, chains: u32 },
    Fleet(Box<FleetCase>),
}

/// A set-up workload: programs assembled and verified, reference runs
/// done.
pub struct Bench {
    seed: u64,
    cases: Cases,
    /// Seconds of the set-up spent assembling and verifying programs.
    pub build_secs: f64,
}

impl Bench {
    /// Assembles the workload's programs and runs their references.
    ///
    /// # Panics
    /// Panics if a program fails to assemble or its reference run fails:
    /// the workloads are known-good programs.
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Bench {
        use ftjvm_workloads::{compress, db, jack, jess, mpegaudio, mtrt};
        use ReplicationMode::{LockSync, ThreadSched};
        let small = size == Size::Small;
        let specs: &[Spec] = match kind {
            Kind::Compute => &[
                (compress::workload, 2, LockSync),
                (mpegaudio::workload, 2, LockSync),
                (mtrt::workload, 4, ThreadSched),
                (jess::workload, 4, ThreadSched),
            ],
            Kind::LockstormFixed | Kind::LockstormCompact => {
                &[(db::workload, 1, LockSync), (jack::workload, 1, LockSync)]
            }
            Kind::LossyGroup => &[(journal, 1, LockSync), (journal, 1, ThreadSched)],
            // The fleet assembles its slots' programs itself.
            Kind::Fleet => &[],
        };
        let codec =
            if kind == Kind::LockstormCompact { WireCodec::Compact } else { WireCodec::Fixed };
        let mut build_secs = 0.0;
        let cases: Vec<Case> = specs
            .iter()
            .enumerate()
            .map(|(i, &(build, scale, mode))| {
                let t = std::time::Instant::now();
                let w = build();
                build_secs += t.elapsed().as_secs_f64();
                let scale = if small { 1 } else { scale };
                let mut cfg = seeded(bench_config(mode, codec, scale), seed, i as u32);
                if kind == Kind::LossyGroup {
                    cfg.checkpoint_interval = Some(3);
                    cfg.detector = FailureDetector::new(SimTime::from_millis(1), 2);
                }
                let name = format!("{} x{scale} {mode} {codec}", w.name);
                Case::new(name, w.program, cfg, split_seed(seed, i as u32, 5))
            })
            .collect();
        let cases = match kind {
            Kind::LossyGroup => Cases::Groups { cases, chains: if small { 1 } else { CHAINS } },
            Kind::Fleet => {
                // Every slot's program is assembled here; the references
                // are analytic (`PairPlan::expected_console`).
                let t = std::time::Instant::now();
                let fleet = FleetCase::new(seed, if small { 64 } else { 512 });
                build_secs = t.elapsed().as_secs_f64();
                Cases::Fleet(Box::new(fleet))
            }
            _ => Cases::Pairs(cases),
        };
        Bench { seed, cases, build_secs }
    }

    /// Runs one iteration: every phase of every case, in order. `extras`
    /// adds the phases only per-layer metrics need; `iteration` numbers
    /// the call (the multi-threaded fleet run rides along on every third
    /// iteration of an untraced run, to keep the cross-thread digest
    /// check without paying for it every time).
    pub fn iteration(&self, h: &mut Harness, extras: bool, iteration: u32) -> Tally {
        let mut t = Tally::default();
        match &self.cases {
            Cases::Pairs(cases) => {
                for c in cases {
                    c.pair_iteration(h, extras, &mut t);
                }
            }
            Cases::Groups { cases, chains } => {
                for (i, c) in cases.iter().enumerate() {
                    let net_seed = split_seed(self.seed, i as u32, 4);
                    c.group_iteration(h, net_seed, *chains, extras, &mut t);
                }
            }
            Cases::Fleet(fleet) => {
                fleet.iteration(h, extras, extras || iteration.is_multiple_of(3), &mut t);
            }
        }
        t
    }
}
