//! The *compact* wire codec: delta/varint record bodies batched into one
//! channel frame per flush.
//!
//! The fixed codec ([`Record::encode`]/[`Record::decode`]) sends one
//! channel message per record with fixed-width fields — easy to audit
//! against the paper's byte counts, but expensive: the simulated channel
//! charges ~18 µs *per message*, so a db run logging hundreds of thousands
//! of lock records pays that cost hundreds of thousands of times.
//!
//! Under [`ftjvm_netsim::WireCodec::Compact`] the primary instead:
//!
//! 1. encodes each record *eagerly at log time* (so the delta context
//!    observes records in log order) into a compact body: LEB128 varints,
//!    zig-zag deltas of monotone fields against a per-stream
//!    context, and interned thread ids / native signature hashes;
//! 2. on flush, concatenates the buffered bodies into **one** batch frame
//!    (`0xBA`, record count, bodies) and sends that single message.
//!
//! The backup mirrors the context while stream-decoding
//! ([`RecordDecoder`]): because bodies are decoded in the order they were
//! encoded, every delta lands on the same context slot value the encoder
//! used. A crash can only lose a *suffix* of frames (FIFO channel), never
//! bytes inside a frame, so the decoder's context never desynchronizes.
//!
//! Frames are self-describing: fixed record tags are `1..=8`, batch frames
//! start with `0xBA`, so a decoder needs no out-of-band codec flag and a
//! log may mix both kinds (heartbeats, for instance, are sent immediately
//! and stay fixed-encoded even in compact mode).
//!
//! ## Delta context rules
//!
//! Every context slot follows one rule on both sides: *read the slot to
//! delta the field, then write the field's new value back*. Deltas use
//! wrapping arithmetic, so arbitrary (even non-monotone) values still
//! round-trip — monotonicity only makes the varints short.
//!
//! | field | slot |
//! |---|---|
//! | `t_asn` (IdMap, LockAcq, LockInterval) | per-thread; an interval advances it to `t_asn_start + count` |
//! | `br_cnt`, `mon_cnt` (Sched) | per-thread |
//! | `seq` (NativeResult) | per-thread ND sequence |
//! | `seq` (OutputCommit) | per-thread output sequence |
//! | `l_asn` (LockAcq) | per-lock |
//! | `output_id` (OutputCommit) | global |
//! | `now_ns` (Heartbeat) | global |

use crate::records::{LoggedResult, Record, WireValue};
use bytes::Bytes;
use ftjvm_netsim::{WireError, WireReader, WireWriter};
use ftjvm_vm::VtPath;
use std::collections::HashMap;

/// First byte of a batch frame. Fixed-codec record tags are `1..=8`, so a
/// frame's first byte says which decoder to use.
pub const BATCH_TAG: u8 = 0xBA;

/// Per-thread delta slots (see the module-level table).
#[derive(Debug, Clone, Default)]
struct ThreadSlots {
    t_asn: u64,
    br_cnt: u64,
    mon_cnt: u64,
    nd_seq: u64,
    out_seq: u64,
}

/// The mirrored encode/decode context. Both sides mutate it identically,
/// which is what keeps the deltas consistent.
#[derive(Debug, Default)]
struct CodecCtx {
    /// Interned threads: wire id → (path, slots). First mention defines.
    threads: Vec<(VtPath, ThreadSlots)>,
    thread_ids: HashMap<VtPath, u32>,
    /// Per-lock last `l_asn`.
    locks: HashMap<u64, u64>,
    /// Interned native signature hashes.
    sigs: Vec<u64>,
    sig_ids: HashMap<u64, u32>,
    last_output_id: u64,
    heartbeat_ns: u64,
}

fn put_delta(w: &mut WireWriter, slot: &mut u64, v: u64) {
    w.put_ivarint(v.wrapping_sub(*slot) as i64);
    *slot = v;
}

fn get_delta(r: &mut WireReader, slot: &mut u64) -> Result<u64, WireError> {
    let d = r.get_ivarint()? as u64;
    *slot = slot.wrapping_add(d);
    Ok(*slot)
}

impl CodecCtx {
    /// Serializes the whole context (interned threads with their delta
    /// slots, per-lock `l_asn` slots sorted by lock id, interned signature
    /// hashes in intern order, and the two global slots) so a fresh decoder
    /// can resume mid-stream from an epoch checkpoint.
    fn export(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(64 + 16 * self.threads.len());
        w.put_uvarint(self.threads.len() as u64);
        for (vt, s) in &self.threads {
            let ords = vt.ordinals();
            w.put_uvarint(ords.len() as u64);
            for &o in ords {
                w.put_uvarint(o as u64);
            }
            w.put_uvarint(s.t_asn);
            w.put_uvarint(s.br_cnt);
            w.put_uvarint(s.mon_cnt);
            w.put_uvarint(s.nd_seq);
            w.put_uvarint(s.out_seq);
        }
        let mut locks: Vec<(u64, u64)> = self.locks.iter().map(|(&k, &v)| (k, v)).collect();
        locks.sort_unstable();
        w.put_uvarint(locks.len() as u64);
        for (l_id, l_asn) in locks {
            w.put_uvarint(l_id);
            w.put_uvarint(l_asn);
        }
        w.put_uvarint(self.sigs.len() as u64);
        for &h in &self.sigs {
            w.put_u64(h);
        }
        w.put_uvarint(self.last_output_id);
        w.put_uvarint(self.heartbeat_ns);
        w.finish()
    }

    /// Mirror of [`CodecCtx::export`]. Rejects trailing bytes.
    fn import(blob: &Bytes) -> Result<CodecCtx, WireError> {
        let mut r = WireReader::new(blob.clone());
        let n_threads = r.get_uvarint()? as usize;
        if n_threads > r.remaining() {
            return Err(WireError::new("ctx thread count"));
        }
        let mut ctx = CodecCtx::default();
        for _ in 0..n_threads {
            let n_ords = r.get_uvarint()? as usize;
            if n_ords == 0 || n_ords > r.remaining() {
                return Err(WireError::new("ctx thread ordinal chain"));
            }
            let mut ords = Vec::with_capacity(n_ords);
            for _ in 0..n_ords {
                let o = r.get_uvarint()?;
                if o > u32::MAX as u64 {
                    return Err(WireError::new("ctx thread ordinal"));
                }
                ords.push(o as u32);
            }
            let vt = VtPath::from_ordinals(ords);
            let slots = ThreadSlots {
                t_asn: r.get_uvarint()?,
                br_cnt: r.get_uvarint()?,
                mon_cnt: r.get_uvarint()?,
                nd_seq: r.get_uvarint()?,
                out_seq: r.get_uvarint()?,
            };
            if ctx.thread_ids.contains_key(&vt) {
                return Err(WireError::new("ctx duplicate thread"));
            }
            ctx.thread_ids.insert(vt.clone(), ctx.threads.len() as u32);
            ctx.threads.push((vt, slots));
        }
        let n_locks = r.get_uvarint()? as usize;
        if n_locks > r.remaining() {
            return Err(WireError::new("ctx lock count"));
        }
        for _ in 0..n_locks {
            let l_id = r.get_uvarint()?;
            let l_asn = r.get_uvarint()?;
            ctx.locks.insert(l_id, l_asn);
        }
        let n_sigs = r.get_uvarint()? as usize;
        if n_sigs > r.remaining() {
            return Err(WireError::new("ctx sig count"));
        }
        for _ in 0..n_sigs {
            let h = r.get_u64()?;
            ctx.sig_ids.insert(h, ctx.sigs.len() as u32);
            ctx.sigs.push(h);
        }
        ctx.last_output_id = r.get_uvarint()?;
        ctx.heartbeat_ns = r.get_uvarint()?;
        if !r.is_empty() {
            return Err(WireError::new("trailing bytes after ctx"));
        }
        Ok(ctx)
    }

    /// Writes a thread reference: `idx+1` if interned, else `0` followed by
    /// the ordinal chain. Returns the thread's intern index.
    fn put_thread(&mut self, w: &mut WireWriter, vt: &VtPath) -> usize {
        if let Some(&id) = self.thread_ids.get(vt) {
            w.put_uvarint(id as u64 + 1);
            return id as usize;
        }
        w.put_uvarint(0);
        let ords = vt.ordinals();
        w.put_uvarint(ords.len() as u64);
        for &o in ords {
            w.put_uvarint(o as u64);
        }
        let id = self.threads.len();
        self.thread_ids.insert(vt.clone(), id as u32);
        self.threads.push((vt.clone(), ThreadSlots::default()));
        id
    }

    /// Mirror of [`CodecCtx::put_thread`].
    fn get_thread(&mut self, r: &mut WireReader) -> Result<usize, WireError> {
        let tag = r.get_uvarint()?;
        if tag != 0 {
            let id = (tag - 1) as usize;
            if id >= self.threads.len() {
                return Err(WireError::new("unknown thread reference"));
            }
            return Ok(id);
        }
        let n = r.get_uvarint()? as usize;
        if n == 0 {
            return Err(WireError::new("empty thread id"));
        }
        // Each ordinal takes at least one byte; reject absurd lengths
        // before allocating.
        if n > r.remaining() {
            return Err(WireError::new("thread ordinal chain"));
        }
        let mut ords = Vec::with_capacity(n);
        for _ in 0..n {
            let o = r.get_uvarint()?;
            if o > u32::MAX as u64 {
                return Err(WireError::new("thread ordinal"));
            }
            ords.push(o as u32);
        }
        let vt = VtPath::from_ordinals(ords);
        let id = self.threads.len();
        self.thread_ids.insert(vt.clone(), id as u32);
        self.threads.push((vt, ThreadSlots::default()));
        Ok(id)
    }

    /// Writes an interned signature hash: `idx+1`, or `0` + raw `u64` on
    /// first mention.
    fn put_sig(&mut self, w: &mut WireWriter, h: u64) {
        if let Some(&id) = self.sig_ids.get(&h) {
            w.put_uvarint(id as u64 + 1);
            return;
        }
        w.put_uvarint(0);
        w.put_u64(h);
        self.sig_ids.insert(h, self.sigs.len() as u32);
        self.sigs.push(h);
    }

    /// Mirror of [`CodecCtx::put_sig`].
    fn get_sig(&mut self, r: &mut WireReader) -> Result<u64, WireError> {
        let tag = r.get_uvarint()?;
        if tag == 0 {
            let h = r.get_u64()?;
            self.sig_ids.insert(h, self.sigs.len() as u32);
            self.sigs.push(h);
            return Ok(h);
        }
        self.sigs
            .get((tag - 1) as usize)
            .copied()
            .ok_or_else(|| WireError::new("unknown signature reference"))
    }
}

fn put_compact_value(w: &mut WireWriter, v: &WireValue) {
    match v {
        WireValue::Null => w.put_u8(0),
        WireValue::Int(i) => {
            w.put_u8(1);
            w.put_ivarint(*i);
        }
        WireValue::Double(d) => {
            w.put_u8(2);
            w.put_f64(*d);
        }
    }
}

fn get_compact_value(r: &mut WireReader) -> Result<WireValue, WireError> {
    match r.get_u8()? {
        0 => Ok(WireValue::Null),
        1 => Ok(WireValue::Int(r.get_ivarint()?)),
        2 => Ok(WireValue::Double(r.get_f64()?)),
        _ => Err(WireError::new("compact value tag")),
    }
}

/// Stateful compact encoder, owned by the primary. Bodies must be encoded
/// in log order and transmitted in that order (the batch frame preserves
/// it).
#[derive(Debug, Default)]
pub struct RecordEncoder {
    ctx: CodecCtx,
}

impl RecordEncoder {
    /// Fresh encoder with an empty delta context.
    pub fn new() -> Self {
        RecordEncoder::default()
    }

    /// Encodes one record into a compact body (tag + fields), advancing the
    /// delta context.
    pub fn encode_body(&mut self, rec: &Record) -> Bytes {
        let hint = match rec {
            Record::SeState { payload, .. } => 12 + payload.len(),
            Record::NativeResult { .. } => 48,
            _ => 24,
        };
        let mut w = WireWriter::with_capacity(hint);
        let ctx = &mut self.ctx;
        match rec {
            Record::IdMap { l_id, t, t_asn } => {
                w.put_u8(1);
                let tid = ctx.put_thread(&mut w, t);
                w.put_uvarint(*l_id);
                put_delta(&mut w, &mut ctx.threads[tid].1.t_asn, *t_asn);
            }
            Record::LockAcq { t, t_asn, l_id, l_asn } => {
                w.put_u8(2);
                let tid = ctx.put_thread(&mut w, t);
                put_delta(&mut w, &mut ctx.threads[tid].1.t_asn, *t_asn);
                w.put_uvarint(*l_id);
                put_delta(&mut w, ctx.locks.entry(*l_id).or_insert(0), *l_asn);
            }
            Record::Sched { t, br_cnt, method, pc_off, mon_cnt, l_asn, in_native, next } => {
                w.put_u8(3);
                let tid = ctx.put_thread(&mut w, t);
                put_delta(&mut w, &mut ctx.threads[tid].1.br_cnt, *br_cnt);
                w.put_uvarint(*method as u64);
                w.put_uvarint(*pc_off as u64);
                put_delta(&mut w, &mut ctx.threads[tid].1.mon_cnt, *mon_cnt);
                w.put_uvarint(*l_asn);
                w.put_u8(*in_native as u8);
                ctx.put_thread(&mut w, next);
            }
            Record::NativeResult { t, seq, sig_hash, result, out_args } => {
                w.put_u8(4);
                let tid = ctx.put_thread(&mut w, t);
                put_delta(&mut w, &mut ctx.threads[tid].1.nd_seq, *seq);
                ctx.put_sig(&mut w, *sig_hash);
                match result {
                    LoggedResult::Ok(None) => w.put_u8(0),
                    LoggedResult::Ok(Some(v)) => {
                        w.put_u8(1);
                        put_compact_value(&mut w, v);
                    }
                    LoggedResult::Err { code, msg } => {
                        w.put_u8(2);
                        w.put_ivarint(*code);
                        w.put_vstr(msg);
                    }
                }
                w.put_uvarint(out_args.len() as u64);
                for (idx, vals) in out_args {
                    w.put_u8(*idx);
                    w.put_uvarint(vals.len() as u64);
                    for v in vals {
                        put_compact_value(&mut w, v);
                    }
                }
            }
            Record::OutputCommit { t, seq, output_id } => {
                w.put_u8(5);
                let tid = ctx.put_thread(&mut w, t);
                put_delta(&mut w, &mut ctx.threads[tid].1.out_seq, *seq);
                put_delta(&mut w, &mut ctx.last_output_id, *output_id);
            }
            Record::SeState { handler, payload } => {
                w.put_u8(6);
                w.put_u8(*handler);
                w.put_vbytes(payload);
            }
            Record::LockInterval { t, t_asn_start, count } => {
                w.put_u8(7);
                let tid = ctx.put_thread(&mut w, t);
                // Delta against the slot, then advance it past the whole
                // interval so the next interval's delta stays small.
                let slot = &mut ctx.threads[tid].1.t_asn;
                w.put_ivarint(t_asn_start.wrapping_sub(*slot) as i64);
                *slot = t_asn_start.wrapping_add(*count);
                w.put_uvarint(*count);
            }
            Record::Heartbeat { now_ns } => {
                w.put_u8(8);
                put_delta(&mut w, &mut ctx.heartbeat_ns, *now_ns);
            }
        }
        w.finish()
    }

    /// Serializes the encoder's delta context at an epoch boundary. A
    /// replacement backup imports it ([`RecordDecoder::import_ctx`]) so
    /// the log *suffix* shipped during re-integration decodes against the
    /// same slot values the encoder used.
    pub fn export_ctx(&self) -> Bytes {
        self.ctx.export()
    }
}

/// Builds one batch frame from compact bodies: `0xBA`, record count, then
/// the concatenated bodies.
pub fn build_batch_frame(bodies: &[Bytes]) -> Bytes {
    let total: usize = bodies.iter().map(|b| b.len()).sum();
    let mut w = WireWriter::with_capacity(1 + 10 + total);
    w.put_u8(BATCH_TAG);
    w.put_uvarint(bodies.len() as u64);
    for b in bodies {
        w.put_raw(b);
    }
    w.finish()
}

/// Stateful frame decoder, owned by the backup. Feed it every frame in
/// arrival order; it handles fixed single-record frames and compact batch
/// frames interchangeably.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    ctx: CodecCtx,
}

/// True when `frame` is a standalone fixed-codec heartbeat record.
/// Heartbeats bypass the batch buffer under both codecs (they are
/// time-driven liveness signals), so the check is codec-independent and
/// needs no decoder context.
pub fn frame_is_heartbeat(frame: &Bytes) -> bool {
    frame.len() == 9 && frame.first() == Some(&8)
}

impl RecordDecoder {
    /// Fresh decoder with an empty delta context.
    pub fn new() -> Self {
        RecordDecoder::default()
    }

    /// Decodes one channel frame, appending its record(s) to `out`.
    ///
    /// # Errors
    /// Returns [`WireError`] on any truncated or malformed input; never
    /// panics.
    pub fn decode_frame(&mut self, frame: Bytes, out: &mut Vec<Record>) -> Result<(), WireError> {
        // Epoch marks, snapshot chunks, and digest votes are control
        // frames: they carry no records and never touch the delta context.
        if matches!(frame.first(), Some(&EPOCH_TAG) | Some(&SNAP_TAG) | Some(&VOTE_TAG)) {
            return Ok(());
        }
        if frame.first() != Some(&BATCH_TAG) {
            out.push(Record::decode(frame)?);
            return Ok(());
        }
        let mut r = WireReader::new(frame.slice(1..));
        let count = r.get_uvarint()?;
        for _ in 0..count {
            out.push(self.decode_compact(&mut r)?);
        }
        if !r.is_empty() {
            return Err(WireError::new("trailing bytes after batch"));
        }
        Ok(())
    }

    /// Replaces the decoder's delta context with one exported by
    /// [`RecordEncoder::export_ctx`] at an epoch cut.
    ///
    /// # Errors
    /// Returns [`WireError`] if the blob is malformed; the existing context
    /// is left untouched in that case.
    pub fn import_ctx(&mut self, blob: &Bytes) -> Result<(), WireError> {
        self.ctx = CodecCtx::import(blob)?;
        Ok(())
    }

    fn decode_compact(&mut self, r: &mut WireReader) -> Result<Record, WireError> {
        let ctx = &mut self.ctx;
        Ok(match r.get_u8()? {
            1 => {
                let tid = ctx.get_thread(r)?;
                let l_id = r.get_uvarint()?;
                let t_asn = get_delta(r, &mut ctx.threads[tid].1.t_asn)?;
                Record::IdMap { l_id, t: ctx.threads[tid].0.clone(), t_asn }
            }
            2 => {
                let tid = ctx.get_thread(r)?;
                let t_asn = get_delta(r, &mut ctx.threads[tid].1.t_asn)?;
                let l_id = r.get_uvarint()?;
                let l_asn = get_delta(r, ctx.locks.entry(l_id).or_insert(0))?;
                Record::LockAcq { t: ctx.threads[tid].0.clone(), t_asn, l_id, l_asn }
            }
            3 => {
                let tid = ctx.get_thread(r)?;
                let br_cnt = get_delta(r, &mut ctx.threads[tid].1.br_cnt)?;
                let method = r.get_uvarint()?;
                let pc_off = r.get_uvarint()?;
                if method > u32::MAX as u64 || pc_off > u32::MAX as u64 {
                    return Err(WireError::new("sched code position"));
                }
                let mon_cnt = get_delta(r, &mut ctx.threads[tid].1.mon_cnt)?;
                let l_asn = r.get_uvarint()?;
                let in_native = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::new("in-native flag")),
                };
                let nid = ctx.get_thread(r)?;
                Record::Sched {
                    t: ctx.threads[tid].0.clone(),
                    br_cnt,
                    method: method as u32,
                    pc_off: pc_off as u32,
                    mon_cnt,
                    l_asn,
                    in_native,
                    next: ctx.threads[nid].0.clone(),
                }
            }
            4 => {
                let tid = ctx.get_thread(r)?;
                let seq = get_delta(r, &mut ctx.threads[tid].1.nd_seq)?;
                let sig_hash = ctx.get_sig(r)?;
                let result = match r.get_u8()? {
                    0 => LoggedResult::Ok(None),
                    1 => LoggedResult::Ok(Some(get_compact_value(r)?)),
                    2 => LoggedResult::Err { code: r.get_ivarint()?, msg: r.get_vstr()? },
                    _ => return Err(WireError::new("logged result tag")),
                };
                let n_args = r.get_uvarint()? as usize;
                if n_args > r.remaining() {
                    return Err(WireError::new("out-arg count"));
                }
                let mut out_args = Vec::with_capacity(n_args);
                for _ in 0..n_args {
                    let idx = r.get_u8()?;
                    let n_vals = r.get_uvarint()? as usize;
                    if n_vals > r.remaining() {
                        return Err(WireError::new("out-arg length"));
                    }
                    let mut vals = Vec::with_capacity(n_vals);
                    for _ in 0..n_vals {
                        vals.push(get_compact_value(r)?);
                    }
                    out_args.push((idx, vals));
                }
                Record::NativeResult {
                    t: ctx.threads[tid].0.clone(),
                    seq,
                    sig_hash,
                    result,
                    out_args,
                }
            }
            5 => {
                let tid = ctx.get_thread(r)?;
                let seq = get_delta(r, &mut ctx.threads[tid].1.out_seq)?;
                let output_id = get_delta(r, &mut ctx.last_output_id)?;
                Record::OutputCommit { t: ctx.threads[tid].0.clone(), seq, output_id }
            }
            6 => Record::SeState { handler: r.get_u8()?, payload: r.get_vbytes()? },
            7 => {
                let tid = ctx.get_thread(r)?;
                let delta = r.get_ivarint()? as u64;
                let slot = &mut ctx.threads[tid].1.t_asn;
                let t_asn_start = slot.wrapping_add(delta);
                let count = r.get_uvarint()?;
                *slot = t_asn_start.wrapping_add(count);
                Record::LockInterval { t: ctx.threads[tid].0.clone(), t_asn_start, count }
            }
            8 => Record::Heartbeat { now_ns: get_delta(r, &mut ctx.heartbeat_ns)? },
            _ => return Err(WireError::new("compact record tag")),
        })
    }
}

/// Records [`RecordDecoder::decode_frame`] appends for `frame`: none for a
/// control frame, one for a fixed frame, and a batch's declared count. The
/// count is capped at the frame's length (every compact record takes at
/// least one byte), so a corrupt count cannot reserve more than that.
fn records_in(frame: &Bytes) -> usize {
    match frame.first() {
        Some(&(EPOCH_TAG | SNAP_TAG | VOTE_TAG)) => 0,
        Some(&BATCH_TAG) => WireReader::new(frame.slice(1..))
            .get_uvarint()
            .map_or(0, |n| n.min(frame.len() as u64) as usize),
        _ => 1,
    }
}

/// Decodes a whole captured log (mixed fixed and batch frames) into the
/// flat record sequence the primary logged.
///
/// # Errors
/// Returns [`WireError`] if any frame is malformed.
pub fn decode_frames(frames: Vec<Bytes>) -> Result<Vec<Record>, WireError> {
    let mut dec = RecordDecoder::new();
    // Sized once up front. Grown by doubling, the output would be copied
    // at every step and briefly held twice, and whether the allocator
    // could extend it in place (so the process's peak memory) would
    // depend on the heap's layout at the time.
    let mut out = Vec::with_capacity(frames.iter().map(records_in).sum());
    for frame in frames {
        dec.decode_frame(frame, &mut out)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Epoch checkpoint control frames. An epoch mark tells the backup that
// everything before it is covered by a snapshot and may be dropped; a
// snapshot chunk carries a piece of that snapshot to a replacement backup
// during re-integration (and to a cold backup's durable store). Both are
// *control* frames: record decoders skip them, and their tags are disjoint
// from fixed record tags (1..=8), BATCH_TAG, and SEAL_TAG.
// ---------------------------------------------------------------------------

/// First byte of an epoch-mark control frame.
pub const EPOCH_TAG: u8 = 0xEC;

/// First byte of a snapshot-chunk control frame.
pub const SNAP_TAG: u8 = 0xC5;

/// Builds an epoch mark: `EPOCH_TAG · uvarint(epoch) · uvarint(covered)`.
/// `covered` is the number of record-bearing frames the epoch's snapshot
/// subsumes (everything flushed since the previous mark).
pub fn build_epoch_frame(epoch: u64, covered: u64) -> Bytes {
    let mut w = WireWriter::with_capacity(21);
    w.put_u8(EPOCH_TAG);
    w.put_uvarint(epoch);
    w.put_uvarint(covered);
    w.finish()
}

/// Parses an epoch mark back into `(epoch, covered)`.
///
/// # Errors
/// Returns [`WireError`] if the frame is not a well-formed epoch mark.
pub fn parse_epoch_frame(frame: &Bytes) -> Result<(u64, u64), WireError> {
    if frame.first() != Some(&EPOCH_TAG) {
        return Err(WireError::new("not an epoch mark"));
    }
    let mut r = WireReader::new(frame.slice(1..));
    let epoch = r.get_uvarint()?;
    let covered = r.get_uvarint()?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after epoch mark"));
    }
    Ok((epoch, covered))
}

/// True when `frame` is an epoch-mark control frame.
pub fn frame_is_epoch_mark(frame: &Bytes) -> bool {
    frame.first() == Some(&EPOCH_TAG)
}

/// True when `frame` is a snapshot-chunk control frame.
pub fn frame_is_snapshot_chunk(frame: &Bytes) -> bool {
    frame.first() == Some(&SNAP_TAG)
}

/// Builds one snapshot chunk:
/// `SNAP_TAG · uvarint(epoch) · uvarint(index) · uvarint(total) · vbytes(payload)`.
pub fn build_snapshot_chunk(epoch: u64, index: u64, total: u64, payload: &[u8]) -> Bytes {
    let mut w = WireWriter::with_capacity(payload.len() + 40);
    w.put_u8(SNAP_TAG);
    w.put_uvarint(epoch);
    w.put_uvarint(index);
    w.put_uvarint(total);
    w.put_vbytes(payload);
    w.finish()
}

/// Parses a snapshot chunk back into `(epoch, index, total, payload)`.
///
/// # Errors
/// Returns [`WireError`] if the frame is malformed or `index >= total`.
pub fn parse_snapshot_chunk(frame: &Bytes) -> Result<(u64, u64, u64, Bytes), WireError> {
    if frame.first() != Some(&SNAP_TAG) {
        return Err(WireError::new("not a snapshot chunk"));
    }
    let mut r = WireReader::new(frame.slice(1..));
    let epoch = r.get_uvarint()?;
    let index = r.get_uvarint()?;
    let total = r.get_uvarint()?;
    if index >= total {
        return Err(WireError::new("snapshot chunk index out of range"));
    }
    let payload = r.get_vbytes()?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after snapshot chunk"));
    }
    Ok((epoch, index, total, payload))
}

/// Reassembles a snapshot from chunk frames delivered (verified, in order,
/// but possibly interleaved with other frames) during re-integration.
///
/// Chunks from a newer epoch supersede a partial older one — the primary
/// only ever ships its *latest* snapshot, so a stale partial assembly means
/// the transfer restarted.
#[derive(Debug, Default)]
pub struct SnapshotAssembler {
    epoch: Option<u64>,
    total: u64,
    chunks: Vec<Option<Bytes>>,
    received: u64,
}

impl SnapshotAssembler {
    /// Fresh assembler with no pending chunks.
    pub fn new() -> Self {
        SnapshotAssembler::default()
    }

    /// Offers one snapshot-chunk frame. Returns `Some((epoch, blob))` once
    /// every chunk of the current epoch's snapshot has arrived.
    ///
    /// # Errors
    /// Returns [`WireError`] on a malformed chunk or one whose `total`
    /// disagrees with earlier chunks of the same epoch.
    pub fn offer(&mut self, frame: &Bytes) -> Result<Option<(u64, Bytes)>, WireError> {
        let (epoch, index, total, payload) = parse_snapshot_chunk(frame)?;
        if total > 1 << 20 {
            return Err(WireError::new("snapshot chunk count implausible"));
        }
        if self.epoch != Some(epoch) {
            self.epoch = Some(epoch);
            self.total = total;
            self.chunks = vec![None; total as usize];
            self.received = 0;
        } else if self.total != total {
            return Err(WireError::new("snapshot chunk total mismatch"));
        }
        let slot = &mut self.chunks[index as usize];
        if slot.is_none() {
            *slot = Some(payload);
            self.received += 1;
        }
        if self.received < self.total {
            return Ok(None);
        }
        let mut blob = Vec::new();
        for c in self.chunks.drain(..) {
            let c = c.ok_or_else(|| WireError::new("snapshot chunk missing at completion"))?;
            blob.extend_from_slice(&c);
        }
        let epoch = self
            .epoch
            .take()
            .ok_or_else(|| WireError::new("snapshot epoch unset at completion"))?;
        self.total = 0;
        self.received = 0;
        Ok(Some((epoch, Bytes::from(blob))))
    }
}

// ---------------------------------------------------------------------------
// Digest-vote control frames (BFT-lite). Each replica in a voting group
// computes a CRC32C digest over every record-bearing frame it sends
// (primary) or receives (standby) and publishes it as a vote; the group
// driver releases a frame to replay only once `vote_quorum` matching
// digests exist. The tag is disjoint from fixed record tags (1..=8),
// BATCH_TAG, EPOCH_TAG, SNAP_TAG, and SEAL_TAG.
// ---------------------------------------------------------------------------

/// First byte of a digest-vote control frame.
pub const VOTE_TAG: u8 = 0xD6;

/// Builds a digest vote:
/// `VOTE_TAG · uvarint(frame_index) · u32 digest`, where `frame_index`
/// counts the sender's record-bearing frames from zero and `digest` is
/// `crc32c` over the (pre-seal) frame payload.
pub fn build_vote_frame(frame_index: u64, digest: u32) -> Bytes {
    let mut w = WireWriter::with_capacity(15);
    w.put_u8(VOTE_TAG);
    w.put_uvarint(frame_index);
    w.put_u32(digest);
    w.finish()
}

/// Parses a digest vote back into `(frame_index, digest)`.
///
/// # Errors
/// Returns [`WireError`] if the frame is not a well-formed vote.
pub fn parse_vote_frame(frame: &Bytes) -> Result<(u64, u32), WireError> {
    if frame.first() != Some(&VOTE_TAG) {
        return Err(WireError::new("not a digest vote"));
    }
    let mut r = WireReader::new(frame.slice(1..));
    let frame_index = r.get_uvarint()?;
    let digest = r.get_u32()?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after digest vote"));
    }
    Ok((frame_index, digest))
}

/// True when `frame` is a digest-vote control frame.
pub fn frame_is_vote(frame: &Bytes) -> bool {
    frame.first() == Some(&VOTE_TAG)
}

/// The digest a replica votes with for one record-bearing frame: CRC32C
/// over the frame payload as it left (or reached) the replication layer,
/// before sealing.
pub fn frame_digest(payload: &[u8]) -> u32 {
    crc32c(payload)
}

/// The digest a vote claims for one whole flush group: CRC32C over the
/// per-frame digests in wire order. Votes cover flushes, not single
/// frames, so the atomic record sets the protocol keeps inside one flush
/// (a native's result plus its side-effect snapshot, an output commit
/// plus its payload) verify — and release downstream — as a unit.
pub fn flush_digest(frame_digests: &[u32]) -> u32 {
    let mut bytes = Vec::with_capacity(frame_digests.len() * 4);
    for d in frame_digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    crc32c(&bytes)
}

// ---------------------------------------------------------------------------
// Reliability sublayer framing: every frame put on a lossy link is *sealed*
// with a self-validating header so the receiver can detect loss, reorder,
// duplication, and corruption before any record decoder (whose delta
// context assumes a verified in-order prefix) ever sees the payload.
// ---------------------------------------------------------------------------

/// First byte of a sealed frame that ends a flush — and of every sealed
/// frame that is not part of a multi-frame flush. Disjoint from fixed
/// record tags (`1..=8`) and [`BATCH_TAG`], so sealed and bare frames are
/// distinguishable.
pub const SEAL_TAG: u8 = 0xF7;

/// First byte of a sealed frame that more frames of the same flush follow
/// (every frame of a fixed-codec flush but its last). A receiver releases
/// frames only up to the last one sealed with [`SEAL_TAG`], so a flush —
/// a native's result and its side-effect snapshot, say — is never split.
/// The checksum covers the choice of tag: such a frame stores the
/// complement of its tail's CRC32C, so flipping one tag into the other
/// fails [`open_frame`] rather than moving a flush boundary.
pub const SEAL_MORE_TAG: u8 = 0xF8;

/// Why a sealed frame failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than the minimal header.
    Truncated,
    /// The first byte is neither [`SEAL_TAG`] nor [`SEAL_MORE_TAG`].
    BadTag(u8),
    /// The CRC32C over the sequence number and payload does not match the
    /// stored checksum — the frame was corrupted in flight.
    Crc {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed from the received bytes.
        computed: u32,
    },
    /// The sequence-number varint is malformed.
    Header(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "sealed frame truncated"),
            FrameError::BadTag(t) => write!(f, "not a sealed frame (tag {t:#04x})"),
            FrameError::Crc { stored, computed } => {
                write!(f, "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            FrameError::Header(e) => write!(f, "sealed frame header: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

pub use ftjvm_netsim::wire::crc32c;

/// Seals one wire frame for transmission over a lossy link:
/// `SEAL_TAG · crc32c(tail) as u32 · tail`, where
/// `tail = uvarint(seq) · payload`. The checksum covers the sequence
/// number too, so a bit flip in the header cannot silently re-address a
/// valid payload to the wrong log position.
///
/// The frame is written once, in one buffer: the tag, a zero checksum,
/// the tail, and then the checksum over the tail in its slot.
pub fn seal_frame(seq: u64, payload: &[u8]) -> Bytes {
    seal(seq, payload, false)
}

/// Seals one frame of a flush: with `more`, a frame that more frames of
/// the same flush follow ([`SEAL_MORE_TAG`]); without, [`seal_frame`].
pub fn seal(seq: u64, payload: &[u8], more: bool) -> Bytes {
    let mut w = WireWriter::with_capacity(5 + 10 + payload.len());
    w.put_u8(if more { SEAL_MORE_TAG } else { SEAL_TAG });
    w.put_u32(0);
    w.put_uvarint(seq);
    w.put_raw(payload);
    let crc = seal_crc(&w.as_bytes()[5..], more);
    w.patch_u32(1, crc);
    w.finish()
}

/// The stored checksum of a sealed frame's tail: its CRC32C, complemented
/// when the frame continues a flush.
fn seal_crc(tail: &[u8], more: bool) -> u32 {
    let crc = crc32c(tail);
    if more {
        !crc
    } else {
        crc
    }
}

/// True if `raw` is sealed as a frame that more frames of its flush
/// follow. Only meaningful for a frame that [`open_frame`] accepted.
pub(crate) fn continues_flush(raw: &[u8]) -> bool {
    raw.first() == Some(&SEAL_MORE_TAG)
}

/// Opens a sealed frame, returning `(sequence number, payload)`.
///
/// # Errors
/// Returns a [`FrameError`] if the frame is truncated, not sealed, fails
/// its CRC, or carries a malformed sequence varint. Never panics, for any
/// input bytes.
pub fn open_frame(raw: &Bytes) -> Result<(u64, Bytes), FrameError> {
    if raw.len() < 6 {
        return Err(FrameError::Truncated);
    }
    let more = match raw[0] {
        SEAL_TAG => false,
        SEAL_MORE_TAG => true,
        tag => return Err(FrameError::BadTag(tag)),
    };
    let stored = u32::from_le_bytes([raw[1], raw[2], raw[3], raw[4]]);
    let tail = raw.slice(5..);
    let computed = seal_crc(&tail, more);
    if stored != computed {
        return Err(FrameError::Crc { stored, computed });
    }
    let mut r = WireReader::new(tail.clone());
    let seq = r.get_uvarint().map_err(FrameError::Header)?;
    let payload = tail.slice(tail.len() - r.remaining()..);
    Ok((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        let t0 = VtPath::root();
        let t1 = t0.child(0);
        vec![
            Record::IdMap { l_id: 3, t: t0.clone(), t_asn: 1 },
            Record::LockAcq { t: t0.clone(), t_asn: 1, l_id: 3, l_asn: 1 },
            Record::LockAcq { t: t1.clone(), t_asn: 1, l_id: 3, l_asn: 2 },
            Record::LockAcq { t: t0.clone(), t_asn: 2, l_id: 3, l_asn: 3 },
            Record::NativeResult {
                t: t0.clone(),
                seq: 1,
                sig_hash: crate::records::sig_hash("sys.time"),
                result: LoggedResult::Ok(Some(WireValue::Int(-42))),
                out_args: vec![(1, vec![WireValue::Null, WireValue::Double(2.5)])],
            },
            Record::SeState { handler: 2, payload: Bytes::from_static(b"snap") },
            Record::OutputCommit { t: t0.clone(), seq: 1, output_id: 7 },
            Record::Sched {
                t: t0.clone(),
                br_cnt: 100,
                method: 4,
                pc_off: 12,
                mon_cnt: 6,
                l_asn: 0,
                in_native: false,
                next: t1.clone(),
            },
            Record::LockInterval { t: t1, t_asn_start: 2, count: 50 },
            Record::Heartbeat { now_ns: 1_000_000 },
        ]
    }

    #[test]
    fn batch_roundtrip_preserves_records() {
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        let bodies: Vec<Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
        let frame = build_batch_frame(&bodies);
        let decoded = decode_frames(vec![frame]).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn split_batches_share_one_context() {
        // The same record stream split across several flushes must decode
        // identically: the context persists across frames.
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        let bodies: Vec<Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
        let frames = vec![
            build_batch_frame(&bodies[..4]),
            build_batch_frame(&bodies[4..7]),
            build_batch_frame(&bodies[7..]),
        ];
        assert_eq!(decode_frames(frames).unwrap(), records);
    }

    #[test]
    fn mixed_fixed_and_batch_frames_decode() {
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        // Heartbeats ride as fixed frames between compact batches.
        let frames = vec![
            Record::Heartbeat { now_ns: 5 }.encode(),
            build_batch_frame(&records.iter().map(|r| enc.encode_body(r)).collect::<Vec<_>>()),
            Record::Heartbeat { now_ns: 6 }.encode(),
        ];
        let decoded = decode_frames(frames).unwrap();
        assert_eq!(decoded.len(), records.len() + 2);
        assert_eq!(decoded[0], Record::Heartbeat { now_ns: 5 });
        assert_eq!(&decoded[1..=records.len()], &records[..]);
    }

    #[test]
    fn decoded_log_is_sized_once() {
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        let bodies: Vec<Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
        let frames = vec![
            Record::Heartbeat { now_ns: 5 }.encode(),
            build_batch_frame(&bodies[..4]),
            build_epoch_frame(1, 2),
            build_batch_frame(&bodies[4..]),
        ];
        let decoded = decode_frames(frames).unwrap();
        assert_eq!(decoded.len(), records.len() + 1);
        assert_eq!(decoded.capacity(), decoded.len(), "no slack, no regrowth");

        // A corrupt count reserves at most the frame's length, then errors.
        let mut w = WireWriter::new();
        w.put_u8(BATCH_TAG);
        w.put_uvarint(u64::MAX);
        assert!(decode_frames(vec![w.finish()]).is_err());
    }

    #[test]
    fn compact_lock_acq_is_a_few_bytes() {
        let t = VtPath::root();
        let mut enc = RecordEncoder::new();
        // First mention pays for the thread definition...
        let first = enc.encode_body(&Record::LockAcq { t: t.clone(), t_asn: 1, l_id: 0, l_asn: 1 });
        assert!(first.len() <= 8, "first lock-acq body was {} bytes", first.len());
        // ...steady state is tag + thread ref + three deltas.
        let steady = enc.encode_body(&Record::LockAcq { t, t_asn: 2, l_id: 0, l_asn: 2 });
        assert_eq!(steady.len(), 5, "steady-state lock-acq body");
    }

    #[test]
    fn non_monotone_values_still_roundtrip() {
        // Wrapping deltas must survive arbitrary jumps in either direction.
        let t = VtPath::root();
        let records = vec![
            Record::LockAcq { t: t.clone(), t_asn: u64::MAX, l_id: 9, l_asn: u64::MAX },
            Record::LockAcq { t: t.clone(), t_asn: 0, l_id: 9, l_asn: 3 },
            Record::Heartbeat { now_ns: u64::MAX },
            Record::Heartbeat { now_ns: 0 },
            Record::LockInterval { t, t_asn_start: u64::MAX - 1, count: 10 },
        ];
        let mut enc = RecordEncoder::new();
        let bodies: Vec<Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
        assert_eq!(decode_frames(vec![build_batch_frame(&bodies)]).unwrap(), records);
    }

    #[test]
    fn truncated_batch_errors_not_panics() {
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        let bodies: Vec<Bytes> = records.iter().map(|r| enc.encode_body(r)).collect();
        let frame = build_batch_frame(&bodies);
        for cut in 1..frame.len() {
            let truncated = frame.slice(..cut);
            let err = decode_frames(vec![truncated]);
            assert!(err.is_err(), "cut at {cut} should error");
        }
    }

    #[test]
    fn garbage_batch_errors_not_panics() {
        // A deterministic pseudo-random byte soup behind a batch tag.
        let mut state = 0x1234_5678_9abc_def0u64;
        for len in [1usize, 2, 7, 33, 256] {
            let mut frame = vec![BATCH_TAG];
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                frame.push((state >> 56) as u8);
            }
            let _ = decode_frames(vec![Bytes::from(frame)]);
        }
    }

    #[test]
    fn unknown_thread_and_sig_references_error() {
        let mut w = WireWriter::new();
        w.put_u8(2); // lock-acq
        w.put_uvarint(99); // thread ref that was never defined
        let body = w.finish();
        assert!(decode_frames(vec![build_batch_frame(&[body])]).is_err());

        let mut w = WireWriter::new();
        w.put_u8(4); // nd-result
        w.put_uvarint(0); // define thread
        w.put_uvarint(1);
        w.put_uvarint(0);
        w.put_ivarint(2); // seq delta
        w.put_uvarint(42); // sig ref that was never defined
        let body = w.finish();
        assert!(decode_frames(vec![build_batch_frame(&[body])]).is_err());
    }

    #[test]
    fn batch_header_is_small() {
        let frame = build_batch_frame(&[]);
        assert_eq!(frame.len(), 2); // tag + zero count
        let t = VtPath::root();
        let mut enc = RecordEncoder::new();
        let body = enc.encode_body(&Record::LockAcq { t, t_asn: 1, l_id: 0, l_asn: 1 });
        let frame = build_batch_frame(std::slice::from_ref(&body));
        assert_eq!(frame.len(), body.len() + 2);
    }

    #[test]
    fn ctx_export_import_resumes_mid_stream() {
        // Encode a prefix, export the encoder context, import it into a
        // FRESH decoder, and check that bodies encoded after the export
        // decode correctly — the re-integration resume path.
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        for r in &records {
            let _ = enc.encode_body(r);
        }
        let ctx = enc.export_ctx();

        let t0 = VtPath::root();
        let suffix = vec![
            Record::LockAcq { t: t0.clone(), t_asn: 3, l_id: 3, l_asn: 4 },
            Record::OutputCommit { t: t0.clone(), seq: 2, output_id: 8 },
            Record::NativeResult {
                t: t0.clone(),
                seq: 2,
                sig_hash: crate::records::sig_hash("sys.time"),
                result: LoggedResult::Ok(Some(WireValue::Int(9))),
                out_args: vec![],
            },
            Record::Sched {
                t: t0,
                br_cnt: 120,
                method: 4,
                pc_off: 30,
                mon_cnt: 7,
                l_asn: 0,
                in_native: false,
                next: VtPath::root().child(0),
            },
        ];
        let bodies: Vec<Bytes> = suffix.iter().map(|r| enc.encode_body(r)).collect();
        let mut dec = RecordDecoder::new();
        dec.import_ctx(&ctx).expect("import");
        let mut out = Vec::new();
        dec.decode_frame(build_batch_frame(&bodies), &mut out).expect("decode suffix");
        assert_eq!(out, suffix);
    }

    #[test]
    fn ctx_import_rejects_mutations() {
        let records = sample_records();
        let mut enc = RecordEncoder::new();
        for r in &records {
            let _ = enc.encode_body(r);
        }
        let ctx = enc.export_ctx();
        let mut dec = RecordDecoder::new();
        dec.import_ctx(&ctx).expect("clean import");
        // Truncations must error, never panic.
        for cut in 0..ctx.len() {
            let _ = RecordDecoder::new().import_ctx(&ctx.slice(..cut)).is_err();
        }
        // Trailing garbage is rejected.
        let mut v = ctx.to_vec();
        v.push(0);
        assert!(RecordDecoder::new().import_ctx(&Bytes::from(v)).is_err());
    }

    #[test]
    fn epoch_mark_roundtrip_and_skip() {
        let frame = build_epoch_frame(7, 123);
        assert!(frame_is_epoch_mark(&frame));
        assert!(!frame_is_heartbeat(&frame));
        assert_eq!(parse_epoch_frame(&frame).unwrap(), (7, 123));
        // Record decoders skip control frames without touching context.
        let mut out = Vec::new();
        RecordDecoder::new().decode_frame(frame.clone(), &mut out).expect("skip");
        assert!(out.is_empty());
        // Malformed marks error.
        assert!(parse_epoch_frame(&frame.slice(..1)).is_err());
        let mut v = frame.to_vec();
        v.push(9);
        assert!(parse_epoch_frame(&Bytes::from(v)).is_err());
    }

    #[test]
    fn snapshot_chunks_reassemble() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let chunk_size = 1024;
        let total = blob.len().div_ceil(chunk_size) as u64;
        let frames: Vec<Bytes> = blob
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| build_snapshot_chunk(3, i as u64, total, c))
            .collect();
        let mut asm = SnapshotAssembler::new();
        for f in &frames[..frames.len() - 1] {
            assert!(frame_is_snapshot_chunk(f));
            assert_eq!(asm.offer(f).unwrap(), None);
        }
        // Duplicate delivery of an already-held chunk is idempotent.
        assert_eq!(asm.offer(&frames[0]).unwrap(), None);
        let (epoch, got) = asm.offer(&frames[frames.len() - 1]).unwrap().expect("complete");
        assert_eq!(epoch, 3);
        assert_eq!(got.as_ref(), &blob[..]);
    }

    #[test]
    fn snapshot_assembler_newer_epoch_supersedes() {
        let mut asm = SnapshotAssembler::new();
        assert_eq!(asm.offer(&build_snapshot_chunk(1, 0, 2, b"old")).unwrap(), None);
        // Epoch 2's transfer restarts the assembly; epoch 1's partial state
        // is dropped.
        assert_eq!(asm.offer(&build_snapshot_chunk(2, 0, 2, b"ab")).unwrap(), None);
        let (epoch, blob) = asm.offer(&build_snapshot_chunk(2, 1, 2, b"cd")).unwrap().unwrap();
        assert_eq!((epoch, blob.as_ref()), (2, &b"abcd"[..]));
    }

    #[test]
    fn snapshot_chunk_malformed_rejected() {
        assert!(parse_snapshot_chunk(&Bytes::from_static(&[SNAP_TAG])).is_err());
        // index >= total.
        let mut w = WireWriter::new();
        w.put_u8(SNAP_TAG);
        w.put_uvarint(0);
        w.put_uvarint(5);
        w.put_uvarint(5);
        w.put_vbytes(b"x");
        assert!(parse_snapshot_chunk(&w.finish()).is_err());
        // Total mismatch across chunks of one epoch.
        let mut asm = SnapshotAssembler::new();
        asm.offer(&build_snapshot_chunk(4, 0, 3, b"a")).unwrap();
        assert!(asm.offer(&build_snapshot_chunk(4, 1, 2, b"b")).is_err());
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 §B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
    }

    #[test]
    fn seal_open_roundtrip() {
        for seq in [0u64, 1, 127, 128, 1 << 20, u64::MAX] {
            let payload = Bytes::from_static(b"some frame payload");
            let sealed = seal_frame(seq, &payload);
            let (got_seq, got) = open_frame(&sealed).expect("roundtrip");
            assert_eq!(got_seq, seq);
            assert_eq!(got, payload);
        }
        // Empty payloads seal too (not used on the wire, but must not panic).
        let sealed = seal_frame(3, b"");
        assert_eq!(open_frame(&sealed).expect("empty"), (3, Bytes::new()));
    }

    /// The payloads the golden seal bytes cover: empty, one byte, and 300
    /// bytes (longer than a one-byte varint's reach and than the CRC's
    /// eight-byte stride).
    fn golden_payloads() -> [Vec<u8>; 3] {
        [Vec::new(), vec![0xA5], (0..300u32).map(|i| (i * 7 + 3) as u8).collect()]
    }

    /// `(seq, payload index, header hex)`: the sealed frame is the header
    /// followed by the payload, byte for byte. This is the wire format; a
    /// change to how the seal is built must not move one byte of it.
    const GOLDEN_SEALS: [(u64, usize, &str); 15] = [
        (0, 0, "f751537d5200"),
        (0, 1, "f768d6db6600"),
        (0, 2, "f771b4011300"),
        (127, 0, "f7783bf67d7f"),
        (127, 1, "f71208fb3e7f"),
        (127, 2, "f773048e297f"),
        (128, 0, "f7280ec9f88001"),
        (128, 1, "f7f4ed5b6f8001"),
        (128, 2, "f7079b044f8001"),
        (1 << 35, 0, "f786d9aff5808080808001"),
        (1 << 35, 1, "f7a2816561808080808001"),
        (1 << 35, 2, "f79b4f1da5808080808001"),
        (u64::MAX, 0, "f70adba206ffffffffffffffffff01"),
        (u64::MAX, 1, "f7087823aeffffffffffffffffff01"),
        (u64::MAX, 2, "f73ce02205ffffffffffffffffff01"),
    ];

    #[test]
    fn seal_bytes_are_golden() {
        let payloads = golden_payloads();
        for (seq, p, head) in GOLDEN_SEALS {
            let payload = &payloads[p];
            let mut want: Vec<u8> = (0..head.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&head[i..i + 2], 16).expect("hex"))
                .collect();
            want.extend_from_slice(payload);
            let sealed = seal_frame(seq, payload);
            assert_eq!(sealed.as_ref(), &want[..], "seq {seq}, {}-byte payload", payload.len());
            assert_eq!(open_frame(&sealed), Ok((seq, Bytes::from(payload.clone()))));
        }
    }

    proptest::proptest! {
        #[test]
        fn open_inverts_seal(
            seq in proptest::prelude::any::<u64>(),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
        ) {
            let sealed = seal_frame(seq, &payload);
            proptest::prop_assert_eq!(open_frame(&sealed), Ok((seq, Bytes::from(payload))));
        }
    }

    #[test]
    fn open_rejects_every_single_byte_flip() {
        let sealed = seal_frame(42, b"payload bytes under test");
        for i in 0..sealed.len() {
            for bit in 0..8u8 {
                let mut v = sealed.to_vec();
                v[i] ^= 1 << bit;
                let got = open_frame(&Bytes::from(v));
                assert!(got.is_err(), "flip byte {i} bit {bit} must not verify");
            }
        }
    }

    #[test]
    fn continued_frames_open_and_their_tag_is_checksummed() {
        let payload = b"a native result";
        let more = seal(9, payload, true);
        assert_eq!(more[0], SEAL_MORE_TAG);
        assert!(continues_flush(&more) && !continues_flush(&seal(9, payload, false)));
        assert_eq!(open_frame(&more), Ok((9, Bytes::from_static(payload))));
        assert_eq!(seal(9, payload, false), seal_frame(9, payload));
        // Swapping one tag for the other, alone, never opens: the stored
        // checksum says which of the two the sender wrote.
        for (sealed, other) in [(more.clone(), SEAL_TAG), (seal_frame(9, payload), SEAL_MORE_TAG)] {
            let mut v = sealed.to_vec();
            v[0] = other;
            assert!(matches!(open_frame(&Bytes::from(v)), Err(FrameError::Crc { .. })));
        }
        for i in 0..more.len() {
            for bit in 0..8u8 {
                let mut v = more.to_vec();
                v[i] ^= 1 << bit;
                assert!(open_frame(&Bytes::from(v)).is_err(), "flip byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn open_rejects_truncation_and_bad_tag() {
        let sealed = seal_frame(7, b"abc");
        for cut in 0..sealed.len() {
            assert!(open_frame(&sealed.slice(..cut)).is_err(), "cut {cut}");
        }
        assert_eq!(open_frame(&Bytes::from_static(&[1u8; 12])), Err(FrameError::BadTag(1)));
        assert_eq!(open_frame(&Bytes::from_static(b"ab")), Err(FrameError::Truncated));
    }
}
