//! Deterministic windowed worker pool: real threads advancing simulation
//! slots in logical-time quanta, merged at barriers.
//!
//! The fleet scheduler multiplexes hundreds of independent slot tasks
//! (replica pairs or groups) on one global timeline. This module runs
//! them on N OS threads *without giving up determinism*: the global
//! timeline is cut into fixed quanta (windows), every worker advances
//! each of its slots to the window boundary against a **frozen snapshot**
//! of the only cross-slot coupling (the shared-trunk calendar), and a
//! two-phase barrier merges the window's trunk reservations and counter
//! deltas in canonical slot-id order before the next window opens.
//!
//! Determinism by construction: inside a window a slot sees the master
//! calendar exactly as it stood at the previous barrier plus its own
//! in-window placements — never another slot's concurrent traffic — so a
//! slot's trajectory is a pure function of its own state and the
//! published snapshot sequence. The merge itself is a commutative fold
//! (interval union, counter sums, a max), applied in slot-id order
//! regardless of which worker delivered which window. One thread or
//! sixteen therefore produce byte-identical timelines, reports, and
//! trunk statistics; `--threads 1` runs the *same* windowed protocol,
//! not a separate code path.
//!
//! The model follows Aviram et al.'s deterministic logical-time quanta
//! and DiSquawk's ownership-transfer rule: a slot (and its trunk port)
//! is owned by exactly one worker, and nothing mutable crosses threads
//! between barriers — only plain-data window logs and finished results.
//!
//! Worker panics are caught at the slot boundary and converted into the
//! slot's error result: a worker must never unwind across the barrier,
//! or every other worker would deadlock waiting for it.

use ftjvm_netsim::{Calendar, SharedBandwidth, SharedLink, SharedStats, SimTime, TrunkWindow};
use ftjvm_vm::VmError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};

/// A simulation slot the windowed scheduler can advance: a local clock,
/// a completion test, and a bounded step.
pub trait WindowTask {
    /// The slot's local instant.
    fn now(&self) -> SimTime;
    /// True once the slot has finished and further steps are no-ops.
    fn is_done(&self) -> bool;
    /// Advances the slot until its local clock reaches `until`, it
    /// completes, or it fails.
    ///
    /// # Errors
    /// Propagates the slot's fatal error; the slot is finalized with it.
    fn step(&mut self, until: SimTime) -> Result<(), VmError>;
}

/// Pool parameters.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads; clamped to `1..=slots`.
    pub threads: usize,
    /// Global logical-time window length.
    pub quantum: SimTime,
    /// Shared-trunk serialization cost; `None` runs without a trunk (the
    /// slots are then fully independent and windows only pace progress).
    pub trunk_per_byte: Option<SimTime>,
}

/// What the pool did, for scheduler diagnostics.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Worker threads actually used.
    pub threads: usize,
    /// Logical-time windows merged.
    pub windows: u64,
    /// Barrier crossings, the same for every worker (two per window).
    pub barrier_waits: u64,
    /// Trunk busy intervals merged into the master calendar.
    pub merged_intervals: u64,
    /// Slots owned by each worker, in worker order.
    pub slots_per_worker: Vec<u32>,
}

/// Cross-window coordinator state, mutated only under the lock and only
/// read between the two barrier phases.
struct MergeState {
    /// The master trunk: merged calendar plus fleet-wide statistics.
    master: Option<SharedBandwidth>,
    /// Frozen calendar every port re-grounds on at the window start: a
    /// shared reference to the master's runs, not a copy.
    snapshot: Calendar,
    /// Global end instant of the window being executed.
    window_end: SimTime,
    /// All slots finished; workers exit at the next phase boundary.
    done: bool,
    /// Slots still running, fleet-wide.
    active: usize,
    /// Window logs deposited this round, tagged by slot id.
    windows: Vec<(u32, TrunkWindow)>,
    /// Minimum global `offset + now` over still-active slots this round;
    /// the next window is the quantum containing it.
    min_next: Option<SimTime>,
    /// A finalizer panicked: the pool result is unusable.
    poisoned: Option<String>,
    stats: PoolStats,
}

/// One worker-owned slot: the task, its trunk port, and its global clock
/// offset. Lives and dies on its owning thread — tasks need not be
/// [`Send`].
struct SlotCell<T> {
    id: u32,
    offset: SimTime,
    port: Option<SharedLink>,
    task: Option<T>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `offsets.len()` slots to completion on a deterministic windowed
/// worker pool. `build(id, port)` constructs slot `id` (attaching the
/// given trunk port, when a trunk is configured); `finish(id, result)`
/// finalizes it **on its owning worker** — taking either the completed
/// task or the error that stopped it — and returns the [`Send`] summary
/// that crosses back to the caller. Results come back indexed by slot
/// id, alongside pool diagnostics and the merged trunk statistics.
///
/// # Errors
/// Returns an error when a finalizer panicked (slot-level errors and
/// task panics are routed into `finish` instead, so a fleet keeps its
/// per-slot error accounting).
pub fn run_windowed<T, R, B, F>(
    opts: &PoolOptions,
    offsets: &[SimTime],
    build: B,
    finish: F,
) -> Result<(Vec<R>, PoolStats, Option<SharedStats>), VmError>
where
    T: WindowTask,
    R: Send,
    B: Fn(u32, Option<&SharedLink>) -> Result<T, VmError> + Sync,
    F: Fn(u32, Result<T, VmError>) -> R + Sync,
{
    let n = offsets.len();
    let threads = opts.threads.clamp(1, n.max(1));
    let quantum = opts.quantum.as_nanos().max(1);

    let mut slots_per_worker = vec![0u32; threads];
    for id in 0..n {
        slots_per_worker[id % threads] += 1;
    }
    let state = Mutex::new(MergeState {
        master: opts.trunk_per_byte.map(SharedBandwidth::new),
        snapshot: Calendar::default(),
        window_end: SimTime::ZERO,
        done: n == 0,
        active: n,
        windows: Vec::new(),
        min_next: None,
        poisoned: None,
        stats: PoolStats {
            threads,
            windows: 0,
            barrier_waits: 0,
            merged_intervals: 0,
            slots_per_worker,
        },
    });
    let barrier = Barrier::new(threads);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    let finalize = |id: u32, r: Result<T, VmError>| {
        // A panicking finalizer must not unwind into the barrier
        // protocol; poison the pool and keep the worker in lockstep.
        match catch_unwind(AssertUnwindSafe(|| finish(id, r))) {
            Ok(out) => {
                let mut res = results.lock().expect("results lock");
                res[id as usize] = Some(out);
            }
            Err(p) => {
                let mut st = state.lock().expect("pool state lock");
                st.poisoned
                    .get_or_insert_with(|| format!("slot {id} finalizer: {}", panic_message(&*p)));
            }
        }
    };

    let worker = |wid: usize| {
        // Build this worker's slots (round-robin ownership). Build
        // errors finalize immediately; the slot never becomes active.
        let mut cells: Vec<SlotCell<T>> = Vec::new();
        let mut finished = 0usize;
        let mut min: Option<SimTime> = None;
        for id in (wid..n).step_by(threads) {
            let id = id as u32;
            let port = opts.trunk_per_byte.map(SharedBandwidth::shared);
            let built =
                catch_unwind(AssertUnwindSafe(|| build(id, port.as_ref()))).unwrap_or_else(|p| {
                    Err(VmError::Internal(format!("build: {}", panic_message(&*p))))
                });
            match built {
                Ok(task) => {
                    let offset = offsets[id as usize];
                    min = Some(min.map_or(offset, |m: SimTime| m.min(offset)));
                    cells.push(SlotCell { id, offset, port, task: Some(task) });
                }
                Err(e) => {
                    finalize(id, Err(e));
                    finished += 1;
                }
            }
        }
        {
            let mut st = state.lock().expect("pool state lock");
            st.active -= finished;
            if let Some(m) = min {
                st.min_next = Some(st.min_next.map_or(m, |v| v.min(m)));
            }
        }

        loop {
            // Phase 1: everyone deposited; the leader merges the window
            // logs in slot-id order and opens the next window.
            if barrier.wait().is_leader() {
                let mut st = state.lock().expect("pool state lock");
                st.windows.sort_unstable_by_key(|&(id, _)| id);
                let logs = std::mem::take(&mut st.windows);
                if let Some(master) = &mut st.master {
                    for (_, w) in &logs {
                        master.merge_window(w);
                    }
                }
                st.stats.merged_intervals +=
                    logs.iter().map(|(_, w)| w.intervals.len() as u64).sum::<u64>();
                st.stats.windows += 1;
                st.stats.barrier_waits += 2;
                if st.active == 0 {
                    st.done = true;
                } else {
                    let base = st.min_next.take().unwrap_or(SimTime::ZERO);
                    let k = base.as_nanos() / quantum;
                    st.window_end = SimTime::from_nanos((k + 1) * quantum);
                    if let Some(master) = &mut st.master {
                        // Reservations wholly before the window can never
                        // move a future placement: every upcoming
                        // admission is at or past the window start.
                        master.prune_before(SimTime::from_nanos(k * quantum));
                        st.snapshot = master.calendar().clone();
                    }
                }
                st.min_next = None;
            }
            // Phase 2: the merge is published; workers read it and run
            // the window.
            barrier.wait();
            let (snapshot, window_end, done) = {
                let st = state.lock().expect("pool state lock");
                (st.snapshot.clone(), st.window_end, st.done)
            };
            if done {
                break;
            }

            let mut local_windows: Vec<(u32, TrunkWindow)> = Vec::new();
            let mut finished = 0usize;
            let mut min: Option<SimTime> = None;
            for cell in &mut cells {
                let Some(task) = cell.task.as_mut() else { continue };
                let global_now = cell.offset + task.now();
                if global_now >= window_end {
                    // Ahead of (or starting after) this window; idle.
                    min = Some(min.map_or(global_now, |m| m.min(global_now)));
                    continue;
                }
                if let Some(port) = &cell.port {
                    port.borrow_mut().sync_window(&snapshot);
                }
                let until = window_end - cell.offset;
                let stepped =
                    catch_unwind(AssertUnwindSafe(|| task.step(until))).unwrap_or_else(|p| {
                        Err(VmError::Internal(format!("slot panic: {}", panic_message(&*p))))
                    });
                // Whatever the slot placed was on the wire and merges,
                // even if the slot then failed (or panicked) mid-window.
                if let Some(port) = &cell.port {
                    let w = port.borrow_mut().take_window();
                    if !w.is_empty() {
                        local_windows.push((cell.id, w));
                    }
                }
                if stepped.is_ok() && !task.is_done() {
                    let g = cell.offset + task.now();
                    min = Some(min.map_or(g, |m| m.min(g)));
                    continue;
                }
                // Finished or failed: the port goes with the task, and with
                // it the slot's reference to a past calendar snapshot.
                let task = cell.task.take().expect("task present");
                cell.port = None;
                finalize(cell.id, stepped.map(|()| task));
                finished += 1;
            }
            let mut st = state.lock().expect("pool state lock");
            st.windows.append(&mut local_windows);
            st.active -= finished;
            if let Some(m) = min {
                st.min_next = Some(st.min_next.map_or(m, |v| v.min(m)));
            }
        }
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|wid| s.spawn(move || worker(wid))).collect();
        worker(0);
        for h in handles {
            // Workers catch every user-code panic themselves; a join
            // error here would be a pool bug and the panic re-raises.
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    let state = state.into_inner().expect("pool state lock");
    if let Some(why) = state.poisoned {
        return Err(VmError::Internal(format!("parallel pool poisoned: {why}")));
    }
    let mut out = Vec::with_capacity(n);
    for (id, r) in results.into_inner().expect("results lock").into_iter().enumerate() {
        match r {
            Some(r) => out.push(r),
            None => {
                return Err(VmError::Internal(format!("parallel pool: slot {id} never finalized")))
            }
        }
    }
    let shared = state.master.as_ref().map(SharedBandwidth::stats);
    Ok((out, state.stats, shared))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slot that advances a fixed tick per step call up to `until` and
    /// admits one frame per tick on its trunk port.
    struct Ticker {
        now: SimTime,
        end: SimTime,
        tick: SimTime,
        port: Option<SharedLink>,
        offset: SimTime,
        delays: Vec<u64>,
    }

    impl WindowTask for Ticker {
        fn now(&self) -> SimTime {
            self.now
        }
        fn is_done(&self) -> bool {
            self.now >= self.end
        }
        fn step(&mut self, until: SimTime) -> Result<(), VmError> {
            while self.now < until && self.now < self.end {
                self.now += self.tick;
                if let Some(port) = &self.port {
                    let at = self.offset + self.now;
                    let d = port.borrow_mut().admit(at, 100);
                    self.delays.push(d.as_nanos());
                }
            }
            Ok(())
        }
    }

    fn run(threads: usize, slots: usize) -> (Vec<Vec<u64>>, PoolStats, Option<SharedStats>) {
        let opts = PoolOptions {
            threads,
            quantum: SimTime::from_micros(5),
            trunk_per_byte: Some(SimTime::from_nanos(10)),
        };
        let offsets: Vec<SimTime> =
            (0..slots).map(|i| SimTime::from_nanos(137 * i as u64)).collect();
        let offs = offsets.clone();
        let (results, stats, shared) = run_windowed(
            &opts,
            &offsets,
            |id, port| {
                Ok(Ticker {
                    now: SimTime::ZERO,
                    end: SimTime::from_micros(40),
                    tick: SimTime::from_nanos(900 + 17 * u64::from(id)),
                    port: port.cloned(),
                    offset: offs[id as usize],
                    delays: Vec::new(),
                })
            },
            |_, r| r.map(|t| t.delays).unwrap_or_default(),
        )
        .expect("pool runs");
        (results, stats, shared)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (r1, s1, t1) = run(1, 9);
        for threads in [2, 4, 8] {
            let (rn, sn, tn) = run(threads, 9);
            assert_eq!(r1, rn, "per-slot admission delays identical at {threads} threads");
            assert_eq!(t1, tn, "trunk stats identical at {threads} threads");
            assert_eq!(s1.windows, sn.windows, "window count identical at {threads} threads");
        }
    }

    #[test]
    fn slot_errors_and_panics_become_results() {
        let opts =
            PoolOptions { threads: 2, quantum: SimTime::from_micros(5), trunk_per_byte: None };
        let offsets = vec![SimTime::ZERO; 3];
        struct Flaky {
            id: u32,
            now: SimTime,
        }
        impl WindowTask for Flaky {
            fn now(&self) -> SimTime {
                self.now
            }
            fn is_done(&self) -> bool {
                self.now >= SimTime::from_micros(10)
            }
            fn step(&mut self, until: SimTime) -> Result<(), VmError> {
                match self.id {
                    1 => Err(VmError::Internal("boom".into())),
                    2 => panic!("slot 2 exploded"),
                    _ => {
                        self.now = until;
                        Ok(())
                    }
                }
            }
        }
        let (results, stats, _) = run_windowed(
            &opts,
            &offsets,
            |id, _| Ok(Flaky { id, now: SimTime::ZERO }),
            |id, r| match r {
                Ok(_) => format!("{id}: ok"),
                Err(e) => format!("{id}: {e}"),
            },
        )
        .expect("pool survives slot failures");
        assert_eq!(results[0], "0: ok");
        assert!(results[1].contains("boom"));
        assert!(results[2].contains("slot 2 exploded"));
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn empty_pool_returns_immediately() {
        let opts =
            PoolOptions { threads: 4, quantum: SimTime::from_micros(5), trunk_per_byte: None };
        let (results, _, _) = run_windowed::<Ticker, (), _, _>(
            &opts,
            &[],
            |_, _| unreachable!("no slots to build"),
            |_, _| (),
        )
        .expect("empty pool runs");
        assert!(results.is_empty());
    }
}
