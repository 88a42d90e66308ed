//! Deterministic VM state snapshots — the epoch-checkpoint substrate.
//!
//! A snapshot serializes *every* piece of mutable replica state — heap,
//! threads, monitors, statics, scheduler, environment volatile state,
//! time account, RNG stream positions — into one framed, CRC-sealed,
//! varint-compressed blob, such that
//! `restore(snapshot(vm))` yields a VM that continues execution
//! bit-for-bit identically to the original. The replication layer uses
//! this to cut epochs: the primary ships a snapshot plus the log suffix
//! since the cut, and a replacement backup resumes from exactly that
//! point instead of replaying the whole run.
//!
//! Two things are deliberately *not* in the blob:
//!
//! * the immutable program and the native registry — function pointers
//!   cannot be serialized; [`Vm::restore`] re-links them exactly like
//!   [`Vm::new`];
//! * the shared [`crate::env::World`] — stable environment state survives
//!   failures by definition (paper §3.4) and is owned by the pair, not a
//!   replica.
//!
//! Opaque *extension sections* (`Vec<(u8, Bytes)>`) travel inside the seal
//! so higher layers (the replication crate) can attach coordinator
//! counters, codec contexts, and side-effect-handler state without this
//! crate depending on them.
//!
//! [`Vm::snapshot_len`] runs the same encoder walk into a byte counter
//! instead of a buffer: an epoch cut whose blob nobody will read (a hot
//! primary's periodic cut) charges the exact serialized size without
//! building it.
//!
//! # Quiescence
//!
//! A snapshot is refused ([`SnapshotError::Unsupported`]) while any thread
//! has an in-flight native activation: native scratch state may hold
//! adopted outcomes and phase closures whose replay records land *after*
//! the cut, so a mid-native cut could never be resumed consistently. The
//! driver checks [`Vm::quiescent`] and defers the cut to the next slice
//! boundary — natives are short, so quiescence recurs immediately.
//! Snapshots are also refused while the race detector is enabled (its
//! shadow state is diagnostic-only and intentionally unserializable).

use crate::class::Program;
use crate::coordinator::{SwitchReason, ThreadSnap};
use crate::env::SimEnv;
use crate::error::VmError;
use crate::exec::{ExecCounters, InternalLock, Vm, VmConfig};
use crate::heap::{Heap, HeapEntry};
use crate::monitor::{Monitor, MonitorTable, Waiter};
use crate::native::NativeRegistry;
use crate::thread::{Frame, ThreadIdx, ThreadKind, ThreadState, VmThread, WaitResume};
use crate::value::{ObjRef, Value};
use crate::vtid::VtPath;
use bytes::Bytes;
use ftjvm_netsim::wire::zigzag;
use ftjvm_netsim::{crc32c, SimTime, TimeAccount, WireError, WireReader, WireWriter};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Magic bytes opening every snapshot blob.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"FTSN";

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Why a snapshot could not be taken or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The VM is in a state that cannot be snapshotted (in-flight native
    /// activation, race detector enabled). Retry at the next quiescent
    /// slice boundary.
    Unsupported(String),
    /// The blob is shorter than the fixed header.
    Truncated,
    /// The blob does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The blob's format version is not understood.
    BadVersion(u8),
    /// The CRC32C over the body does not match the sealed checksum — the
    /// blob was corrupted in flight or at rest.
    Crc {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed from the received bytes.
        computed: u32,
    },
    /// The body failed structural decoding despite a valid checksum.
    Malformed(String),
    /// Rebuilding the VM around the decoded state failed (e.g. native
    /// re-linking against a mismatched registry).
    Restore(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported(why) => write!(f, "snapshot unsupported here: {why}"),
            SnapshotError::Truncated => write!(f, "snapshot blob truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::Crc { stored, computed } => {
                write!(f, "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot body: {what}"),
            SnapshotError::Restore(why) => write!(f, "snapshot restore failed: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Malformed(e.to_string())
    }
}

/// Bytes ahead of the body: magic, version, CRC32C of the body.
const HEADER_LEN: usize = 9;

// ---------------------------------------------------------------------------
// Encode sinks: one walk over the VM, two destinations.
// ---------------------------------------------------------------------------

/// Where [`encode_body`] puts the snapshot. A [`WireWriter`] builds the
/// blob; a [`ByteCount`] only measures it, so a cut that ships nothing
/// can charge the exact serialized size without serializing.
trait Sink {
    fn put_u8(&mut self, v: u8);
    fn put_u64(&mut self, v: u64);
    fn put_uvarint(&mut self, v: u64);
    fn put_vbytes(&mut self, v: &[u8]);

    // `#[inline]` matters here: without it every heap `Int` pays a call,
    // and building a snapshot ran 7% slower than with inherent methods.
    #[inline]
    fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(zigzag(v));
    }

    #[inline]
    fn put_vstr(&mut self, v: &str) {
        self.put_vbytes(v.as_bytes());
    }
}

impl Sink for WireWriter {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        WireWriter::put_u8(self, v);
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        WireWriter::put_u64(self, v);
    }

    #[inline]
    fn put_uvarint(&mut self, v: u64) {
        WireWriter::put_uvarint(self, v);
    }

    #[inline]
    fn put_vbytes(&mut self, v: &[u8]) {
        WireWriter::put_vbytes(self, v);
    }
}

/// A sink that adds up what a [`WireWriter`] would have appended.
#[derive(Default)]
struct ByteCount(usize);

/// Encoded length of an unsigned LEB128 varint: one byte per started
/// group of 7 significant bits, at least one.
#[inline]
fn uvarint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

impl Sink for ByteCount {
    #[inline]
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    #[inline]
    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }

    #[inline]
    fn put_uvarint(&mut self, v: u64) {
        self.0 += uvarint_len(v);
    }

    #[inline]
    fn put_vbytes(&mut self, v: &[u8]) {
        self.0 += uvarint_len(v.len() as u64) + v.len();
    }
}

// ---------------------------------------------------------------------------
// Field-level codec helpers.
// ---------------------------------------------------------------------------

fn put_value(w: &mut impl Sink, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_ivarint(*i);
        }
        Value::Double(d) => {
            w.put_u8(2);
            w.put_u64(d.to_bits());
        }
        Value::Ref(r) => {
            w.put_u8(3);
            w.put_uvarint(r.index() as u64);
        }
    }
}

fn get_value(r: &mut WireReader) -> Result<Value, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Int(r.get_ivarint()?),
        2 => Value::Double(f64::from_bits(r.get_u64()?)),
        3 => Value::Ref(ObjRef::from_index(r.get_uvarint()? as usize)),
        t => return Err(SnapshotError::Malformed(format!("value tag {t}"))),
    })
}

fn put_values(w: &mut impl Sink, vs: &[Value]) {
    w.put_uvarint(vs.len() as u64);
    for v in vs {
        put_value(w, v);
    }
}

fn get_values(r: &mut WireReader) -> Result<Vec<Value>, SnapshotError> {
    let n = r.get_uvarint()? as usize;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(get_value(r)?);
    }
    Ok(out)
}

fn put_opt_u64(w: &mut impl Sink, v: Option<u64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_uvarint(x);
        }
    }
}

fn get_opt_u64(r: &mut WireReader) -> Result<Option<u64>, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_uvarint()?)),
        t => Err(SnapshotError::Malformed(format!("option tag {t}"))),
    }
}

fn put_opt_thread(w: &mut impl Sink, t: Option<ThreadIdx>) {
    put_opt_u64(w, t.map(|t| t.0 as u64));
}

fn get_opt_thread(r: &mut WireReader) -> Result<Option<ThreadIdx>, SnapshotError> {
    Ok(get_opt_u64(r)?.map(|v| ThreadIdx(v as u32)))
}

fn put_opt_obj(w: &mut impl Sink, o: Option<ObjRef>) {
    put_opt_u64(w, o.map(|r| r.index() as u64));
}

fn get_opt_obj(r: &mut WireReader) -> Result<Option<ObjRef>, SnapshotError> {
    Ok(get_opt_u64(r)?.map(|v| ObjRef::from_index(v as usize)))
}

fn put_opt_vt(w: &mut impl Sink, vt: Option<&VtPath>) {
    match vt {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            let ords = p.ordinals();
            w.put_uvarint(ords.len() as u64);
            for o in ords {
                w.put_uvarint(*o as u64);
            }
        }
    }
}

fn get_opt_vt(r: &mut WireReader) -> Result<Option<VtPath>, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => {
            let n = r.get_uvarint()? as usize;
            if n == 0 {
                return Err(SnapshotError::Malformed("empty vt path".into()));
            }
            let mut ords = Vec::new();
            for _ in 0..n {
                ords.push(r.get_uvarint()? as u32);
            }
            Ok(Some(VtPath::from_ordinals(ords)))
        }
        t => Err(SnapshotError::Malformed(format!("vt tag {t}"))),
    }
}

fn switch_reason_tag(r: SwitchReason) -> u8 {
    match r {
        SwitchReason::Quantum => 0,
        SwitchReason::ReplayPoint => 1,
        SwitchReason::BlockedMonitor => 2,
        SwitchReason::Waiting => 3,
        SwitchReason::Deferred => 4,
        SwitchReason::DeferredNative => 5,
        SwitchReason::Internal => 6,
        SwitchReason::Sleep => 7,
        SwitchReason::Yield => 8,
        SwitchReason::Exit => 9,
    }
}

fn switch_reason_from(tag: u8) -> Result<SwitchReason, SnapshotError> {
    Ok(match tag {
        0 => SwitchReason::Quantum,
        1 => SwitchReason::ReplayPoint,
        2 => SwitchReason::BlockedMonitor,
        3 => SwitchReason::Waiting,
        4 => SwitchReason::Deferred,
        5 => SwitchReason::DeferredNative,
        6 => SwitchReason::Internal,
        7 => SwitchReason::Sleep,
        8 => SwitchReason::Yield,
        9 => SwitchReason::Exit,
        t => return Err(SnapshotError::Malformed(format!("switch reason tag {t}"))),
    })
}

fn put_state(w: &mut impl Sink, s: &ThreadState) {
    match s {
        ThreadState::Runnable => w.put_u8(0),
        ThreadState::BlockedMonitor { obj } => {
            w.put_u8(1);
            w.put_uvarint(obj.index() as u64);
        }
        ThreadState::WaitingMonitor { obj } => {
            w.put_u8(2);
            w.put_uvarint(obj.index() as u64);
        }
        ThreadState::DeferredMonitor { obj } => {
            w.put_u8(3);
            w.put_uvarint(obj.index() as u64);
        }
        ThreadState::DeferredNative => w.put_u8(4),
        ThreadState::BlockedInternal => w.put_u8(5),
        ThreadState::Sleeping { until } => {
            w.put_u8(6);
            w.put_uvarint(until.as_nanos());
        }
        ThreadState::Parked => w.put_u8(7),
        ThreadState::Terminated => w.put_u8(8),
    }
}

fn get_state(r: &mut WireReader) -> Result<ThreadState, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => ThreadState::Runnable,
        1 => ThreadState::BlockedMonitor { obj: ObjRef::from_index(r.get_uvarint()? as usize) },
        2 => ThreadState::WaitingMonitor { obj: ObjRef::from_index(r.get_uvarint()? as usize) },
        3 => ThreadState::DeferredMonitor { obj: ObjRef::from_index(r.get_uvarint()? as usize) },
        4 => ThreadState::DeferredNative,
        5 => ThreadState::BlockedInternal,
        6 => ThreadState::Sleeping { until: SimTime::from_nanos(r.get_uvarint()?) },
        7 => ThreadState::Parked,
        8 => ThreadState::Terminated,
        t => return Err(SnapshotError::Malformed(format!("thread state tag {t}"))),
    })
}

fn put_thread_snap(w: &mut impl Sink, s: &ThreadSnap) {
    w.put_uvarint(s.t.0 as u64);
    put_opt_vt(w, s.vt.as_ref());
    w.put_uvarint(s.br_cnt);
    w.put_uvarint(s.mon_cnt);
    w.put_uvarint(s.t_asn);
    put_opt_u64(w, s.method.map(|m| m.0 as u64));
    w.put_uvarint(s.pc as u64);
    w.put_u8(s.in_native as u8);
    w.put_uvarint(s.blocked_lasn);
}

fn get_thread_snap(r: &mut WireReader) -> Result<ThreadSnap, SnapshotError> {
    Ok(ThreadSnap {
        t: ThreadIdx(r.get_uvarint()? as u32),
        vt: get_opt_vt(r)?,
        br_cnt: r.get_uvarint()?,
        mon_cnt: r.get_uvarint()?,
        t_asn: r.get_uvarint()?,
        method: get_opt_u64(r)?.map(|m| crate::bytecode::MethodId(m as u32)),
        pc: r.get_uvarint()? as u32,
        in_native: r.get_u8()? != 0,
        blocked_lasn: r.get_uvarint()?,
    })
}

// ---------------------------------------------------------------------------
// Snapshot (encode).
// ---------------------------------------------------------------------------

fn encode_body<S: Sink>(vm: &Vm, ext: &[(u8, Bytes)], mut w: S) -> S {
    let core = vm.core();

    // 1. Environment volatile state.
    let env = &core.env;
    w.put_vstr(&env.replica);
    w.put_uvarint(env.clock_skew.as_nanos());
    w.put_u64(env.rng_state());
    w.put_uvarint(env.peek_next_vfd());
    w.put_uvarint(env.peek_next_sd());
    let files: Vec<_> = env.open_files().collect();
    w.put_uvarint(files.len() as u64);
    for (vfd, f) in files {
        w.put_uvarint(vfd);
        w.put_vstr(&f.name);
        w.put_uvarint(f.offset as u64);
    }
    let socks: Vec<_> = env.open_sockets().collect();
    w.put_uvarint(socks.len() as u64);
    for (sd, c) in socks {
        w.put_uvarint(sd);
        w.put_vstr(&c.peer);
        w.put_uvarint(c.sent);
    }

    // 2. Time account.
    let (now, totals) = core.acct.snapshot_parts();
    w.put_uvarint(now.as_nanos());
    for t in totals {
        w.put_uvarint(t.as_nanos());
    }

    // 3. Heap (holes included, so slot indices and the free list survive).
    let heap = &core.heap;
    w.put_uvarint(heap.capacity as u64);
    w.put_uvarint(heap.gc_threshold as u64);
    w.put_uvarint(heap.live as u64);
    w.put_uvarint(heap.allocs_since_gc as u64);
    w.put_uvarint(heap.total_allocs);
    w.put_uvarint(heap.slots.len() as u64);
    for slot in &heap.slots {
        match slot {
            None => w.put_u8(0),
            Some(HeapEntry::Obj { class, fields }) => {
                w.put_u8(1);
                w.put_uvarint(class.0 as u64);
                put_values(&mut w, fields);
            }
            Some(HeapEntry::Arr { elems }) => {
                w.put_u8(2);
                put_values(&mut w, elems);
            }
        }
    }
    w.put_uvarint(heap.free.len() as u64);
    for i in &heap.free {
        w.put_uvarint(*i as u64);
    }
    w.put_uvarint(heap.finalizer_done.len() as u64);
    for b in &heap.finalizer_done {
        w.put_u8(*b as u8);
    }

    // 4. Statics.
    w.put_uvarint(core.statics.len() as u64);
    for class_statics in &core.statics {
        put_values(&mut w, class_statics);
    }

    // 5. Class lock objects.
    w.put_uvarint(core.class_objects.len() as u64);
    for r in &core.class_objects {
        w.put_uvarint(r.index() as u64);
    }

    // 6. Monitors, in object order (the table iterates in it).
    w.put_uvarint(core.monitors.len() as u64);
    for (obj, m) in core.monitors.iter() {
        w.put_uvarint(obj.index() as u64);
        put_opt_thread(&mut w, m.owner);
        w.put_uvarint(m.recursion as u64);
        w.put_uvarint(m.entry_queue.len() as u64);
        for t in &m.entry_queue {
            w.put_uvarint(t.0 as u64);
        }
        w.put_uvarint(m.wait_set.len() as u64);
        for waiter in &m.wait_set {
            w.put_uvarint(waiter.thread.0 as u64);
            w.put_uvarint(waiter.saved_recursion as u64);
        }
        w.put_uvarint(m.l_asn);
        put_opt_u64(&mut w, m.l_id);
    }

    // 7. Threads (quiescence guarantees `native` is None everywhere).
    w.put_uvarint(core.threads.len() as u64);
    for th in &core.threads {
        w.put_uvarint(th.idx.0 as u64);
        w.put_u8(match th.kind {
            ThreadKind::App => 0,
            ThreadKind::GcWorker => 1,
            ThreadKind::Finalizer => 2,
        });
        put_opt_vt(&mut w, th.vt.as_ref());
        put_state(&mut w, &th.state);
        w.put_uvarint(th.frames.len() as u64);
        for f in &th.frames {
            w.put_uvarint(f.method.0 as u64);
            w.put_uvarint(f.pc as u64);
            put_values(&mut w, &f.locals);
            put_values(&mut w, &f.stack);
            put_opt_obj(&mut w, f.sync_obj);
        }
        w.put_uvarint(th.br_cnt);
        w.put_uvarint(th.mon_cnt);
        w.put_uvarint(th.t_asn);
        w.put_uvarint(th.children as u64);
        put_opt_u64(&mut w, th.wait_resume.map(|wr| wr.saved_recursion as u64));
        put_opt_obj(&mut w, th.unwinding);
    }

    // 8. Scheduler: run queue, dispatched thread, quantum, RNG, units.
    w.put_uvarint(core.run_queue.len() as u64);
    for t in &core.run_queue {
        w.put_uvarint(t.0 as u64);
    }
    put_opt_thread(&mut w, core.current);
    w.put_uvarint(core.quantum_left as u64);
    w.put_u64(core.sched_rng.state());
    w.put_u8(core.yield_requested as u8);
    w.put_uvarint(core.units);

    // 9. GC machinery.
    w.put_u8(core.gc_requested as u8);
    w.put_u8(core.gc_phase);
    put_opt_thread(&mut w, core.gc_thread);
    put_opt_thread(&mut w, core.finalizer_thread);
    w.put_uvarint(core.finalizer_queue.len() as u64);
    for r in &core.finalizer_queue {
        w.put_uvarint(r.index() as u64);
    }

    // 10. Counters.
    let c = &core.counters;
    for v in [
        c.instructions,
        c.branches,
        c.monitor_acquires,
        c.monitor_ops,
        c.native_calls,
        c.outputs,
        c.allocations,
        c.gc_runs,
        c.context_switches,
        c.objects_locked,
        c.spawns,
    ] {
        w.put_uvarint(v);
    }

    // 11. Uncaught-exception exits.
    w.put_uvarint(core.uncaught.len() as u64);
    for (vt, code) in &core.uncaught {
        put_opt_vt(&mut w, vt.as_ref());
        w.put_ivarint(*code);
    }

    // 12. Pending context switch.
    match &core.pending_switch {
        None => w.put_u8(0),
        Some((snap, reason)) => {
            w.put_u8(1);
            put_thread_snap(&mut w, snap);
            w.put_u8(switch_reason_tag(*reason));
        }
    }

    // 13. Internal (non-Java) locks.
    w.put_uvarint(core.internal_locks.len() as u64);
    for lock in &core.internal_locks {
        put_opt_thread(&mut w, lock.holder);
        w.put_uvarint(lock.waiters.len() as u64);
        for t in &lock.waiters {
            w.put_uvarint(t.0 as u64);
        }
    }

    // 14. Opaque extension sections.
    w.put_uvarint(ext.len() as u64);
    for (tag, payload) in ext {
        w.put_u8(*tag);
        w.put_vbytes(payload);
    }
    w
}

// ---------------------------------------------------------------------------
// Restore (decode).
// ---------------------------------------------------------------------------

struct DecodedEnv {
    replica: String,
    clock_skew: SimTime,
    rng_state: u64,
    next_vfd: u64,
    next_sd: u64,
    files: Vec<(u64, String, usize)>,
    socks: Vec<(u64, String, u64)>,
}

fn decode_env(r: &mut WireReader) -> Result<DecodedEnv, SnapshotError> {
    let replica = r.get_vstr()?;
    let clock_skew = SimTime::from_nanos(r.get_uvarint()?);
    let rng_state = r.get_u64()?;
    let next_vfd = r.get_uvarint()?;
    let next_sd = r.get_uvarint()?;
    let n_files = r.get_uvarint()? as usize;
    let mut files = Vec::new();
    for _ in 0..n_files {
        let vfd = r.get_uvarint()?;
        let name = r.get_vstr()?;
        let offset = r.get_uvarint()? as usize;
        files.push((vfd, name, offset));
    }
    let n_socks = r.get_uvarint()? as usize;
    let mut socks = Vec::new();
    for _ in 0..n_socks {
        let sd = r.get_uvarint()?;
        let peer = r.get_vstr()?;
        let sent = r.get_uvarint()?;
        socks.push((sd, peer, sent));
    }
    Ok(DecodedEnv { replica, clock_skew, rng_state, next_vfd, next_sd, files, socks })
}

impl Vm {
    /// True when the VM is at a point where [`Vm::snapshot`] will succeed:
    /// no thread holds an in-flight native activation and the race
    /// detector is off. Epoch drivers poll this at slice boundaries and
    /// defer cuts until it holds.
    pub fn quiescent(&self) -> bool {
        let core = self.core();
        core.race.is_none() && core.threads.iter().all(|t| t.native.is_none())
    }

    /// Serializes the VM's complete mutable state into a framed,
    /// CRC-sealed blob, attaching the caller's opaque extension sections.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Unsupported`] when the VM is not
    /// [quiescent](Vm::quiescent).
    pub fn snapshot(&self, ext: &[(u8, Bytes)]) -> Result<Bytes, SnapshotError> {
        self.check_snapshottable()?;
        let body = encode_body(self, ext, WireWriter::with_capacity(4096)).finish();
        let mut w = WireWriter::with_capacity(HEADER_LEN + body.len());
        w.put_raw(SNAPSHOT_MAGIC);
        w.put_u8(SNAPSHOT_VERSION);
        w.put_u32(crc32c(&body));
        w.put_raw(&body);
        Ok(w.finish())
    }

    /// The length [`Vm::snapshot`] would return for `ext`, counted by the
    /// same encoder walk without writing a byte or computing the CRC.
    ///
    /// # Errors
    /// Refuses exactly where [`Vm::snapshot`] refuses.
    pub fn snapshot_len(&self, ext: &[(u8, Bytes)]) -> Result<usize, SnapshotError> {
        self.check_snapshottable()?;
        Ok(HEADER_LEN + encode_body(self, ext, ByteCount::default()).0)
    }

    /// The one refusal rule shared by [`Vm::snapshot`] and
    /// [`Vm::snapshot_len`].
    fn check_snapshottable(&self) -> Result<(), SnapshotError> {
        let core = self.core();
        if core.race.is_some() {
            return Err(SnapshotError::Unsupported(
                "race detector shadow state is not serializable".into(),
            ));
        }
        if let Some(th) = core.threads.iter().find(|t| t.native.is_some()) {
            return Err(SnapshotError::Unsupported(format!(
                "thread {} has an in-flight native activation",
                th.idx
            )));
        }
        Ok(())
    }

    /// Rebuilds a VM from a snapshot blob, re-linking `program` and
    /// `natives` and attaching the restored replica to `world`. Returns
    /// the VM plus the extension sections stored by [`Vm::snapshot`].
    ///
    /// `cfg` supplies the *immutable* configuration (cost model, budgets);
    /// all mutable state — including the scheduler RNG position — comes
    /// from the blob, so a restored VM continues bit-for-bit.
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] on a truncated, corrupted, or
    /// malformed blob, and [`SnapshotError::Restore`] when the VM cannot
    /// be rebuilt (e.g. `natives` no longer resolves the program's
    /// imports).
    pub fn restore(
        program: Arc<Program>,
        natives: NativeRegistry,
        world: crate::env::SharedWorld,
        cfg: &VmConfig,
        blob: &[u8],
    ) -> Result<(Vm, Vec<(u8, Bytes)>), SnapshotError> {
        if cfg.race_detect {
            return Err(SnapshotError::Unsupported(
                "cannot restore a snapshot into a race-detecting VM".into(),
            ));
        }
        if blob.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if &blob[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if blob[4] != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(blob[4]));
        }
        let stored = u32::from_le_bytes([blob[5], blob[6], blob[7], blob[8]]);
        let body = &blob[HEADER_LEN..];
        let computed = crc32c(body);
        if stored != computed {
            return Err(SnapshotError::Crc { stored, computed });
        }
        let mut r = WireReader::new(Bytes::from(body.to_vec()));

        // 1. Environment.
        let de = decode_env(&mut r)?;
        let mut env = SimEnv::new(&de.replica, world, de.clock_skew, 0);
        env.set_rng_state(de.rng_state);
        for (vfd, name, offset) in &de.files {
            env.restore_open_file(*vfd, name, *offset);
        }
        env.set_next_vfd(de.next_vfd);
        for (sd, peer, sent) in &de.socks {
            env.restore_socket(*sd, peer, *sent);
        }
        env.set_next_sd(de.next_sd);

        // 2. Time account.
        let now = SimTime::from_nanos(r.get_uvarint()?);
        let mut totals = [SimTime::ZERO; 6];
        for t in &mut totals {
            *t = SimTime::from_nanos(r.get_uvarint()?);
        }
        let acct = TimeAccount::from_parts(now, totals);

        // 3. Heap.
        let capacity = r.get_uvarint()? as usize;
        let gc_threshold = r.get_uvarint()? as usize;
        let mut heap = Heap::new(capacity, gc_threshold);
        heap.live = r.get_uvarint()? as usize;
        heap.allocs_since_gc = r.get_uvarint()? as usize;
        heap.total_allocs = r.get_uvarint()?;
        let n_slots = r.get_uvarint()? as usize;
        for _ in 0..n_slots {
            heap.slots.push(match r.get_u8()? {
                0 => None,
                1 => {
                    let class = crate::bytecode::ClassId(r.get_uvarint()? as u16);
                    let fields = get_values(&mut r)?;
                    Some(HeapEntry::Obj { class, fields })
                }
                2 => Some(HeapEntry::Arr { elems: get_values(&mut r)? }),
                t => return Err(SnapshotError::Malformed(format!("heap slot tag {t}"))),
            });
        }
        let n_free = r.get_uvarint()? as usize;
        for _ in 0..n_free {
            heap.free.push(r.get_uvarint()? as u32);
        }
        let n_fin = r.get_uvarint()? as usize;
        for _ in 0..n_fin {
            heap.finalizer_done.push(r.get_u8()? != 0);
        }

        // 4. Statics.
        let n_statics = r.get_uvarint()? as usize;
        let mut statics = Vec::new();
        for _ in 0..n_statics {
            statics.push(get_values(&mut r)?);
        }

        // 5. Class lock objects.
        let n_classes = r.get_uvarint()? as usize;
        let mut class_objects = Vec::new();
        for _ in 0..n_classes {
            class_objects.push(ObjRef::from_index(r.get_uvarint()? as usize));
        }

        // 6. Monitors.
        let mut monitors = MonitorTable::new();
        let n_mons = r.get_uvarint()? as usize;
        for _ in 0..n_mons {
            let obj = ObjRef::from_index(r.get_uvarint()? as usize);
            if obj.index() >= heap.slots.len() {
                return Err(SnapshotError::Malformed(format!("monitor on {obj} past the heap")));
            }
            let owner = get_opt_thread(&mut r)?;
            let recursion = r.get_uvarint()? as u32;
            let n_entry = r.get_uvarint()? as usize;
            let mut entry_queue = VecDeque::new();
            for _ in 0..n_entry {
                entry_queue.push_back(ThreadIdx(r.get_uvarint()? as u32));
            }
            let n_wait = r.get_uvarint()? as usize;
            let mut wait_set = VecDeque::new();
            for _ in 0..n_wait {
                let thread = ThreadIdx(r.get_uvarint()? as u32);
                let saved_recursion = r.get_uvarint()? as u32;
                wait_set.push_back(Waiter { thread, saved_recursion });
            }
            let l_asn = r.get_uvarint()?;
            let l_id = get_opt_u64(&mut r)?;
            *monitors.monitor_mut(obj) =
                Monitor { owner, recursion, entry_queue, wait_set, l_asn, l_id };
        }

        // 7. Threads.
        let n_threads = r.get_uvarint()? as usize;
        let mut threads = Vec::new();
        for _ in 0..n_threads {
            let idx = ThreadIdx(r.get_uvarint()? as u32);
            let kind = match r.get_u8()? {
                0 => ThreadKind::App,
                1 => ThreadKind::GcWorker,
                2 => ThreadKind::Finalizer,
                t => return Err(SnapshotError::Malformed(format!("thread kind tag {t}"))),
            };
            let vt = get_opt_vt(&mut r)?;
            let state = get_state(&mut r)?;
            let n_frames = r.get_uvarint()? as usize;
            let mut frames = Vec::new();
            for _ in 0..n_frames {
                let method = crate::bytecode::MethodId(r.get_uvarint()? as u32);
                let pc = r.get_uvarint()? as u32;
                let locals = get_values(&mut r)?;
                let stack = get_values(&mut r)?;
                let sync_obj = get_opt_obj(&mut r)?;
                frames.push(Frame { method, pc, locals, stack, sync_obj });
            }
            let br_cnt = r.get_uvarint()?;
            let mon_cnt = r.get_uvarint()?;
            let t_asn = r.get_uvarint()?;
            let children = r.get_uvarint()? as u32;
            let wait_resume =
                get_opt_u64(&mut r)?.map(|v| WaitResume { saved_recursion: v as u32 });
            let unwinding = get_opt_obj(&mut r)?;
            threads.push(VmThread {
                idx,
                kind,
                vt,
                state,
                frames,
                spare_frames: Vec::new(),
                br_cnt,
                mon_cnt,
                t_asn,
                children,
                native: None,
                wait_resume,
                unwinding,
                held_for_race: Vec::new(),
            });
        }

        // 8. Scheduler.
        let n_queue = r.get_uvarint()? as usize;
        let mut run_queue = VecDeque::new();
        for _ in 0..n_queue {
            run_queue.push_back(ThreadIdx(r.get_uvarint()? as u32));
        }
        let current = get_opt_thread(&mut r)?;
        let quantum_left = r.get_uvarint()? as u32;
        let sched_rng = StdRng::from_state(r.get_u64()?);
        let yield_requested = r.get_u8()? != 0;
        let units = r.get_uvarint()?;

        // 9. GC machinery.
        let gc_requested = r.get_u8()? != 0;
        let gc_phase = r.get_u8()?;
        let gc_thread = get_opt_thread(&mut r)?;
        let finalizer_thread = get_opt_thread(&mut r)?;
        let n_finq = r.get_uvarint()? as usize;
        let mut finalizer_queue = VecDeque::new();
        for _ in 0..n_finq {
            finalizer_queue.push_back(ObjRef::from_index(r.get_uvarint()? as usize));
        }

        // 10. Counters.
        let mut counter_vals = [0u64; 11];
        for v in &mut counter_vals {
            *v = r.get_uvarint()?;
        }
        let counters = ExecCounters {
            instructions: counter_vals[0],
            branches: counter_vals[1],
            monitor_acquires: counter_vals[2],
            monitor_ops: counter_vals[3],
            native_calls: counter_vals[4],
            outputs: counter_vals[5],
            allocations: counter_vals[6],
            gc_runs: counter_vals[7],
            context_switches: counter_vals[8],
            objects_locked: counter_vals[9],
            spawns: counter_vals[10],
        };

        // 11. Uncaught exits.
        let n_unc = r.get_uvarint()? as usize;
        let mut uncaught = Vec::new();
        for _ in 0..n_unc {
            let vt = get_opt_vt(&mut r)?;
            let code = r.get_ivarint()?;
            uncaught.push((vt, code));
        }

        // 12. Pending switch.
        let pending_switch = match r.get_u8()? {
            0 => None,
            1 => {
                let snap = get_thread_snap(&mut r)?;
                let reason = switch_reason_from(r.get_u8()?)?;
                Some((snap, reason))
            }
            t => return Err(SnapshotError::Malformed(format!("pending switch tag {t}"))),
        };

        // 13. Internal locks.
        let n_locks = r.get_uvarint()? as usize;
        let mut internal_locks = Vec::new();
        for _ in 0..n_locks {
            let holder = get_opt_thread(&mut r)?;
            let n_waiters = r.get_uvarint()? as usize;
            let mut waiters = Vec::new();
            for _ in 0..n_waiters {
                waiters.push(ThreadIdx(r.get_uvarint()? as u32));
            }
            internal_locks.push(InternalLock { holder, waiters });
        }

        // 14. Extension sections.
        let n_ext = r.get_uvarint()? as usize;
        let mut ext = Vec::new();
        for _ in 0..n_ext {
            let tag = r.get_u8()?;
            let payload = r.get_vbytes()?;
            ext.push((tag, payload));
        }
        if !r.is_empty() {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after snapshot body",
                r.remaining()
            )));
        }

        // Rebuild the VM shell (links natives, validates the program) and
        // transplant the decoded state over it wholesale.
        let restore_cfg = VmConfig { race_detect: false, ..cfg.clone() };
        let mut vm = Vm::new(program, natives, env, restore_cfg)
            .map_err(|e: VmError| SnapshotError::Restore(e.to_string()))?;
        let core = vm.core_mut();
        core.heap = heap;
        core.monitors = monitors;
        core.statics = statics;
        core.class_objects = class_objects;
        core.monitor_queues = crate::exec::MonitorQueues::count(&threads);
        core.threads = threads;
        core.run_queue = run_queue;
        core.current = current;
        core.acct = acct;
        core.counters = counters;
        core.uncaught = uncaught;
        core.finalizer_queue = finalizer_queue;
        core.quantum_left = quantum_left;
        core.sched_rng = sched_rng;
        core.internal_locks = internal_locks;
        core.gc_requested = gc_requested;
        core.gc_phase = gc_phase;
        core.gc_thread = gc_thread;
        core.finalizer_thread = finalizer_thread;
        core.pending_switch = pending_switch;
        core.yield_requested = yield_requested;
        core.units = units;
        Ok((vm, ext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::NoopCoordinator;
    use crate::env::World;
    use crate::exec::SliceOutcome;
    use crate::program::ProgramBuilder;
    use ftjvm_netsim::SimTime;

    /// A workload exercising monitors, spawned threads, ND natives
    /// (clock + rand), sleeps, and console output — everything a snapshot
    /// must carry — without reading stable state back (so a continuation
    /// on a fresh world stays comparable).
    fn busy_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let print_int = b.import_native("sys.print_int", 1, false);
        let clock = b.import_native("sys.clock", 0, true);
        let rand = b.import_native("sys.rand", 1, true);
        let spawn = b.import_native("sys.spawn", 2, false);
        let yield_n = b.import_native("sys.yield", 0, false);
        let cls = b.add_class("snap/Counter", crate::class::builtin::OBJECT, 0, 2);

        let mut inc = b.method("inc", 1);
        inc.static_of(cls).synchronized();
        inc.get_static(cls, 0).push_i(1).add().put_static(cls, 0).ret_void();
        let inc = inc.build(&mut b);

        let mut fin = b.method("finish", 1);
        fin.static_of(cls).synchronized();
        fin.get_static(cls, 1).push_i(1).add().put_static(cls, 1).ret_void();
        let fin = fin.build(&mut b);

        let mut w = b.method("worker", 1);
        let done = w.new_label();
        w.push_i(40).store(1);
        let top = w.bind_new_label();
        w.load(1).if_not(done);
        w.push_i(0).invoke(inc);
        w.invoke_native(clock, 0).push_i(7).rem().pop();
        w.push_i(5).invoke_native(rand, 1).pop();
        w.inc(1, -1).goto(top);
        w.bind(done).push_i(0).invoke(fin).ret_void();
        let w = w.build(&mut b);

        let mut m = b.method("main", 1);
        m.push_i(0).put_static(cls, 0);
        m.push_i(0).put_static(cls, 1);
        for _ in 0..3 {
            m.push_method(w).push_i(0).invoke_native(spawn, 2);
        }
        let wait_loop = m.bind_new_label();
        let ready = m.new_label();
        m.get_static(cls, 1).push_i(3).icmp(crate::bytecode::Cmp::Eq).if_true(ready);
        m.invoke_native(yield_n, 0).goto(wait_loop);
        m.bind(ready);
        m.get_static(cls, 0).invoke_native(print_int, 1);
        m.push_i(3).invoke_native(rand, 1).invoke_native(print_int, 1);
        m.ret_void();
        let entry = m.build(&mut b);
        Arc::new(b.build(entry).expect("busy program verifies"))
    }

    fn cfg() -> VmConfig {
        VmConfig { quantum: 50, quantum_jitter: 30, ..VmConfig::default() }
    }

    /// Runs until at least `min_units` have elapsed AND the VM is
    /// quiescent, or the program completes. Returns true if still running.
    fn run_until_cut(vm: &mut Vm, min_units: u64) -> bool {
        let mut coord = NoopCoordinator::new();
        loop {
            match vm.run_slice(&mut coord, 64).expect("runs") {
                SliceOutcome::Budget | SliceOutcome::Paused => {
                    vm.poll_suspended(&mut coord);
                    if vm.core().units >= min_units && vm.quiescent() {
                        return true;
                    }
                }
                SliceOutcome::Completed(_) | SliceOutcome::Stopped(_) => return false,
            }
        }
    }

    fn finish(vm: &mut Vm) -> crate::exec::RunReport {
        let mut coord = NoopCoordinator::new();
        vm.run(&mut coord).expect("completes")
    }

    #[test]
    fn restore_then_resnapshot_is_byte_identical() {
        let program = busy_program();
        let world = World::shared();
        let env = SimEnv::new("p", world, SimTime::ZERO, 7);
        let mut vm = Vm::new(program.clone(), NativeRegistry::with_builtins(), env, cfg()).unwrap();
        assert!(run_until_cut(&mut vm, 400), "program finished before the cut");

        let ext = vec![(9u8, Bytes::from(vec![1, 2, 3])), (200u8, Bytes::new())];
        let blob = vm.snapshot(&ext).expect("snapshot at quiescent point");

        let world2 = World::shared();
        let (vm2, ext2) =
            Vm::restore(program, NativeRegistry::with_builtins(), world2, &cfg(), &blob)
                .expect("restores");
        assert_eq!(ext2, ext);
        let blob2 = vm2.snapshot(&ext).expect("re-snapshot");
        assert_eq!(blob, blob2, "snapshot is not a deterministic fixpoint");
        assert_eq!(vm.snapshot_len(&ext), Ok(blob.len()));
        assert_eq!(vm2.snapshot_len(&ext), Ok(blob.len()));
    }

    #[test]
    fn uvarint_len_matches_the_writer_at_every_boundary() {
        for k in 0..=9u32 {
            let edge = 1u64 << (7 * k);
            for v in [edge.saturating_sub(1), edge, edge + 1, u64::MAX] {
                let mut w = WireWriter::new();
                w.put_uvarint(v);
                assert_eq!(uvarint_len(v), w.len(), "length of {v}");
            }
        }
    }

    #[test]
    fn restored_vm_continues_bit_for_bit() {
        let program = busy_program();
        let world1 = World::shared();
        let env = SimEnv::new("p", world1.clone(), SimTime::from_micros(3), 7);
        let mut vm1 =
            Vm::new(program.clone(), NativeRegistry::with_builtins(), env, cfg()).unwrap();
        assert!(run_until_cut(&mut vm1, 400), "program finished before the cut");
        let blob = vm1.snapshot(&[]).expect("snapshot");
        let console_at_cut = world1.borrow().console_texts().len();

        let report1 = finish(&mut vm1);

        let world2 = World::shared();
        let (mut vm2, _) =
            Vm::restore(program, NativeRegistry::with_builtins(), world2.clone(), &cfg(), &blob)
                .expect("restores");
        let report2 = finish(&mut vm2);

        let full = world1.borrow().console_texts();
        assert_eq!(world2.borrow().console_texts(), full[console_at_cut..].to_vec());
        assert_eq!(report1.counters, report2.counters);
        assert_eq!(report1.acct.now(), report2.acct.now());
        assert_eq!(vm1.core().units, vm2.core().units);
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let program = busy_program();
        let env = SimEnv::new("p", World::shared(), SimTime::ZERO, 7);
        let mut vm = Vm::new(program.clone(), NativeRegistry::with_builtins(), env, cfg()).unwrap();
        run_until_cut(&mut vm, 200);
        let blob = vm.snapshot(&[]).expect("snapshot");

        let restore = |bytes: &[u8]| {
            Vm::restore(
                program.clone(),
                NativeRegistry::with_builtins(),
                World::shared(),
                &cfg(),
                bytes,
            )
            .map(|_| ())
        };

        assert_eq!(restore(&blob[..4]), Err(SnapshotError::Truncated));
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(restore(&bad), Err(SnapshotError::BadMagic));
        let mut bad = blob.to_vec();
        bad[4] = 99;
        assert_eq!(restore(&bad), Err(SnapshotError::BadVersion(99)));
        for pos in [9, blob.len() / 2, blob.len() - 1] {
            let mut bad = blob.to_vec();
            bad[pos] ^= 0x10;
            assert!(
                matches!(restore(&bad), Err(SnapshotError::Crc { .. })),
                "flip at {pos} must fail the checksum"
            );
        }
        assert!(matches!(restore(&blob[..blob.len() - 3]), Err(SnapshotError::Crc { .. })));
    }

    #[test]
    fn snapshot_refused_mid_native_and_under_race_detection() {
        let program = busy_program();
        let env = SimEnv::new("p", World::shared(), SimTime::ZERO, 7);
        let race_cfg = VmConfig { race_detect: true, ..cfg() };
        let vm = Vm::new(program, NativeRegistry::with_builtins(), env, race_cfg).unwrap();
        assert!(!vm.quiescent());
        assert!(matches!(vm.snapshot(&[]), Err(SnapshotError::Unsupported(_))));
        assert!(matches!(vm.snapshot_len(&[]), Err(SnapshotError::Unsupported(_))));
    }
}
