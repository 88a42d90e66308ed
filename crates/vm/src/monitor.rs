//! Re-entrant per-object monitors with wait sets, plus the per-lock
//! bookkeeping the replication layer needs.
//!
//! Every object can serve as a Java-style monitor: re-entrant mutual
//! exclusion (`monitorenter`/`monitorexit`, `synchronized` methods) and
//! condition synchronization (`wait`/`notify`/`notifyAll`). The monitor
//! carries two pieces of replication state from the paper (§4.2):
//!
//! * `l_asn` — the *lock acquire sequence number*, counting acquisitions by
//!   **application** threads (system-thread acquisitions are not
//!   replicated and therefore must not perturb the count);
//! * `l_id` — the virtual lock id lazily assigned by the primary the first
//!   time the lock is acquired, shipped to the backup in an *id map*.
//!
//! This module owns the monitor *data*; the blocking/wake-up choreography
//! lives in the executor, which couples monitors to the scheduler.

use crate::thread::ThreadIdx;
use crate::value::ObjRef;
use std::collections::VecDeque;

/// Error returned when a thread releases or waits on a monitor it does not
/// own — the VM turns it into `IllegalMonitorStateException`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOwner;

impl std::fmt::Display for NotOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread does not own the monitor")
    }
}

impl std::error::Error for NotOwner {}

/// A thread parked in a wait set, remembering the recursion depth it must
/// restore when it re-acquires the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The waiting thread.
    pub thread: ThreadIdx,
    /// Monitor recursion depth saved by `wait`.
    pub saved_recursion: u32,
}

/// One object's monitor.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Current owner, if held.
    pub owner: Option<ThreadIdx>,
    /// Re-entrancy depth (1 for a single acquisition).
    pub recursion: u32,
    /// Threads blocked trying to enter, FIFO.
    pub entry_queue: VecDeque<ThreadIdx>,
    /// Threads parked in `wait`, FIFO.
    pub wait_set: VecDeque<Waiter>,
    /// Lock acquire sequence number: application-thread acquisitions so far.
    pub l_asn: u64,
    /// Virtual lock id assigned on first acquisition at the primary, or
    /// adopted from an id map at the backup.
    pub l_id: Option<u64>,
}

/// Result of [`Monitor::try_enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnterResult {
    /// The monitor was acquired (freshly or re-entrantly).
    Acquired {
        /// True if this was a recursive acquisition by the existing owner.
        recursive: bool,
    },
    /// The monitor is held by another thread.
    Contended {
        /// The current owner.
        owner: ThreadIdx,
    },
}

impl Monitor {
    /// Attempts to acquire for `t`. Does not touch `l_asn` — the executor
    /// bumps it only for application threads on non-recursive acquisitions.
    pub fn try_enter(&mut self, t: ThreadIdx) -> EnterResult {
        match self.owner {
            None => {
                self.owner = Some(t);
                self.recursion = 1;
                EnterResult::Acquired { recursive: false }
            }
            Some(o) if o == t => {
                self.recursion += 1;
                EnterResult::Acquired { recursive: true }
            }
            Some(o) => EnterResult::Contended { owner: o },
        }
    }

    /// Releases one level of recursion held by `t`. Returns `Ok(true)` if
    /// the monitor became free (and the entry queue should be woken).
    ///
    /// # Errors
    /// Returns [`NotOwner`] if `t` does not own the monitor — the caller
    /// raises `IllegalMonitorStateException`.
    pub fn exit(&mut self, t: ThreadIdx) -> Result<bool, NotOwner> {
        if self.owner != Some(t) {
            return Err(NotOwner);
        }
        self.recursion -= 1;
        if self.recursion == 0 {
            self.owner = None;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Releases the monitor *fully* for `wait`: returns the saved recursion
    /// depth.
    ///
    /// # Errors
    /// Returns [`NotOwner`] if `t` does not own the monitor.
    pub fn release_all(&mut self, t: ThreadIdx) -> Result<u32, NotOwner> {
        if self.owner != Some(t) {
            return Err(NotOwner);
        }
        let depth = self.recursion;
        self.owner = None;
        self.recursion = 0;
        Ok(depth)
    }

    /// True if `t` currently owns the monitor.
    pub fn owned_by(&self, t: ThreadIdx) -> bool {
        self.owner == Some(t)
    }

    /// Owned, contended, or with waiters: such a monitor's object is a GC
    /// root, and its entry outlives the object's other references.
    fn in_use(&self) -> bool {
        self.owner.is_some() || !self.entry_queue.is_empty() || !self.wait_set.is_empty()
    }
}

/// All monitors, keyed by object. Entries are created lazily on first use
/// and dropped when their object is collected.
///
/// Dense rather than hashed: `index` maps a heap slot to its entry in
/// `slab`, so a lookup is two array reads. Iteration walks `index`, which
/// yields monitors in object order — the order a snapshot writes them in.
#[derive(Debug, Default)]
pub struct MonitorTable {
    /// Per heap slot: 0 when the object has no monitor, else one plus the
    /// position of its entry in `slab`.
    index: Vec<u32>,
    /// The monitors with their objects, in no particular order.
    slab: Vec<(ObjRef, Monitor)>,
}

impl MonitorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MonitorTable::default()
    }

    /// The monitor for `obj`, created on first use.
    pub fn monitor_mut(&mut self, obj: ObjRef) -> &mut Monitor {
        let i = obj.index();
        if i >= self.index.len() {
            self.index.resize(i + 1, 0);
        }
        let pos = match self.index[i] {
            0 => {
                self.slab.push((obj, Monitor::default()));
                self.index[i] = self.slab.len() as u32;
                self.slab.len() - 1
            }
            p => p as usize - 1,
        };
        &mut self.slab[pos].1
    }

    /// The monitor for `obj`, if it has ever been used.
    pub fn monitor(&self, obj: ObjRef) -> Option<&Monitor> {
        match self.index.get(obj.index()) {
            Some(&p) if p != 0 => Some(&self.slab[p as usize - 1].1),
            _ => None,
        }
    }

    /// Number of monitors in the table.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when no monitor has been used (or all were dropped).
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Every monitor with its object, in object order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjRef, &Monitor)> + '_ {
        self.index.iter().enumerate().filter(|(_, &p)| p != 0).map(|(i, &p)| {
            let (obj, m) = &self.slab[p as usize - 1];
            debug_assert_eq!(obj.index(), i);
            (*obj, m)
        })
    }

    /// Objects whose monitor is in active use (owned, contended, or with
    /// waiters); these must be treated as GC roots so a locked object can
    /// never be collected out from under its monitor.
    pub fn active_objects(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.iter().filter(|(_, m)| m.in_use()).map(|(obj, _)| obj)
    }

    /// Number of distinct objects ever locked (the paper's "Objects Locked"
    /// row in Table 2 counts these at the primary).
    pub fn objects_locked(&self) -> usize {
        self.slab.iter().filter(|(_, m)| m.l_asn > 0 || m.owner.is_some()).count()
    }

    /// The largest virtual lock id any monitor carries, if any was ever
    /// assigned. A backup promoting to primary seeds its id allocator
    /// past this so fresh assignments never collide with replayed ones.
    pub fn max_lock_id(&self) -> Option<u64> {
        self.slab.iter().filter_map(|(_, m)| m.l_id).max()
    }

    /// Drops monitor entries for objects freed by the collector.
    pub fn retain_live(&mut self, is_live: impl Fn(ObjRef) -> bool) {
        let index = &mut self.index;
        self.slab.retain(|(obj, m)| {
            let keep = is_live(*obj) || m.in_use();
            if !keep {
                index[obj.index()] = 0;
            }
            keep
        });
        for (pos, (obj, _)) in self.slab.iter().enumerate() {
            index[obj.index()] = pos as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadIdx {
        ThreadIdx(n)
    }

    #[test]
    fn reentrant_acquire_release() {
        let mut m = Monitor::default();
        assert_eq!(m.try_enter(t(1)), EnterResult::Acquired { recursive: false });
        assert_eq!(m.try_enter(t(1)), EnterResult::Acquired { recursive: true });
        assert_eq!(m.try_enter(t(2)), EnterResult::Contended { owner: t(1) });
        assert_eq!(m.exit(t(1)), Ok(false));
        assert_eq!(m.exit(t(1)), Ok(true));
        assert_eq!(m.try_enter(t(2)), EnterResult::Acquired { recursive: false });
    }

    #[test]
    fn exit_without_ownership_is_error() {
        let mut m = Monitor::default();
        assert_eq!(m.exit(t(1)), Err(NotOwner));
        m.try_enter(t(1));
        assert_eq!(m.exit(t(2)), Err(NotOwner));
    }

    #[test]
    fn release_all_saves_depth() {
        let mut m = Monitor::default();
        m.try_enter(t(1));
        m.try_enter(t(1));
        m.try_enter(t(1));
        assert_eq!(m.release_all(t(1)), Ok(3));
        assert_eq!(m.owner, None);
        assert_eq!(m.release_all(t(1)), Err(NotOwner));
    }

    #[test]
    fn table_tracks_active_objects() {
        let mut tbl = MonitorTable::new();
        let a = ObjRef::from_index(1);
        let b = ObjRef::from_index(2);
        tbl.monitor_mut(a).try_enter(t(1));
        tbl.monitor_mut(b); // touched but never locked
        let active: Vec<ObjRef> = tbl.active_objects().collect();
        assert_eq!(active, vec![a]);
        assert_eq!(tbl.objects_locked(), 1);
    }

    #[test]
    fn retain_live_keeps_active_monitors() {
        let mut tbl = MonitorTable::new();
        let a = ObjRef::from_index(1);
        let b = ObjRef::from_index(2);
        tbl.monitor_mut(a).try_enter(t(1));
        tbl.monitor_mut(b);
        tbl.retain_live(|_| false); // "everything died"
        assert!(tbl.monitor(a).is_some(), "owned monitor survives");
        assert!(tbl.monitor(b).is_none(), "idle monitor dropped");
    }
}
