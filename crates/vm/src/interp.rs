//! The bytecode execution engine (BEE): instruction semantics, native
//! driving, and exception unwinding.
//!
//! One call to [`exec_unit`] executes exactly one *unit* — a bytecode
//! instruction, one phase of a native method, or one step of a system
//! thread. Units are the granularity of preemption, which is what lets the
//! backup's thread-scheduling replay stop a thread at exactly the recorded
//! `(br_cnt, pc_off, mon_cnt)` point (paper §4.2).

use crate::bytecode::{ClassId, Cmp, Insn, MethodId, VSlot};
use crate::class::{builtin, excode, Program};
use crate::coordinator::{Coordinator, NativeDirective};
use crate::decoded::{cmp_of, decode_one, fused_arith, DOp, DecodedProgram, OpCode, F_FUSE_SHIFT};
use crate::error::VmError;
use crate::exec::{obs_of, AcquireOutcome, DispatchEngine, VmCore};
use crate::heap::{Heap, HeapEntry};
use crate::native::{
    Intrinsic, NativeAbort, NativeCtx, NativeKind, NativeOutcome, NativeRegistry, PhaseOutcome,
};
use crate::thread::{
    AdoptedOutcome, NativeActivation, ThreadIdx, ThreadKind, ThreadState, WaitResume,
};
use crate::value::{ObjRef, Value};
use ftjvm_netsim::SimTime;

/// Executes one unit of the current thread.
///
/// # Errors
/// Returns fatal [`VmError`]s; application-level exceptions are raised
/// in-VM and do not surface here.
pub(crate) fn exec_unit(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
) -> Result<(), VmError> {
    let Some(t) = core.current else {
        return Err(VmError::Internal("exec_unit requires a dispatched thread".into()));
    };
    match core.thread(t).kind {
        ThreadKind::GcWorker => step_gc_worker(core, t),
        ThreadKind::Finalizer => step_finalizer(core, natives, coord, t),
        ThreadKind::App => {
            if core.thread(t).native.is_some() {
                drive_native(core, natives, coord, t)
            } else {
                exec_insn(core, natives, coord, t)
            }
        }
    }
}

fn step_gc_worker(core: &mut VmCore, t: ThreadIdx) -> Result<(), VmError> {
    match core.gc_phase {
        0 => {
            let heap_lock = core.heap_lock;
            if core.internal_try_lock(heap_lock, t) {
                core.gc_phase = 1;
            }
        }
        1 => {
            core.run_gc();
            core.gc_phase = 2;
        }
        _ => {
            let heap_lock = core.heap_lock;
            core.internal_unlock(heap_lock);
            core.gc_phase = 0;
            core.thread_mut(t).state = ThreadState::Parked;
        }
    }
    Ok(())
}

fn step_finalizer(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
) -> Result<(), VmError> {
    if core.thread(t).native.is_some() {
        return drive_native(core, natives, coord, t);
    }
    if core.thread(t).frames.is_empty() {
        match core.finalizer_queue.pop_front() {
            Some(obj) => {
                let Some(class) = core.heap.class_of(obj) else {
                    // Object vanished (should not happen; be defensive).
                    return Ok(());
                };
                let Some(fin) = core.program.classes[class.0 as usize].finalizer else {
                    return Ok(());
                };
                let n_locals = core.program.method(fin).n_locals;
                core.thread_mut(t).frames.push(crate::thread::Frame::new(
                    fin,
                    n_locals,
                    vec![Value::Ref(obj)],
                ));
            }
            None => core.thread_mut(t).state = ThreadState::Parked,
        }
        return Ok(());
    }
    exec_insn(core, natives, coord, t)
}

// ----- value-stack helpers -----

fn type_err(detail: impl Into<String>) -> VmError {
    VmError::TypeError { detail: detail.into() }
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    stack.pop().ok_or_else(|| type_err("operand stack underflow"))
}

fn pop_int(stack: &mut Vec<Value>) -> Result<i64, VmError> {
    pop(stack)?.as_int().map_err(|v| type_err(format!("expected int, found {v}")))
}

fn pop_double(stack: &mut Vec<Value>) -> Result<f64, VmError> {
    match pop(stack)? {
        Value::Double(d) => Ok(d),
        Value::Int(i) => Ok(i as f64),
        v => Err(type_err(format!("expected double, found {v}"))),
    }
}

// ----- exceptions -----

/// Allocates a runtime exception with the given code and raises it.
pub(crate) fn raise_runtime(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    code: i64,
) -> Result<(), VmError> {
    let ex =
        core.heap.alloc_obj(builtin::RUNTIME_EXCEPTION, 1).map_err(|_| VmError::OutOfMemory)?;
    if let Some(HeapEntry::Obj { fields, .. }) = core.heap.get_mut(ex) {
        fields[builtin::THROWABLE_CODE_SLOT as usize] = Value::Int(code);
    }
    raise_obj(core, coord, t, ex)
}

/// Unwinds thread `t` with throwable `ex` until a handler catches it.
pub(crate) fn raise_obj(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    ex: ObjRef,
) -> Result<(), VmError> {
    let ex_class = core.heap.class_of(ex).unwrap_or(builtin::THROWABLE);
    core.thread_mut(t).unwinding = Some(ex);
    loop {
        let Some(frame) = core.thread(t).frames.last() else {
            // Uncaught: the thread dies (Java semantics).
            let code = match core.heap.get(ex) {
                Some(HeapEntry::Obj { fields, .. }) => fields
                    .get(builtin::THROWABLE_CODE_SLOT as usize)
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(-1),
                _ => -1,
            };
            core.thread_mut(t).unwinding = None;
            core.finish_thread(coord, t, Some(code));
            return Ok(());
        };
        let pc = frame.pc;
        let method = frame.method;
        let handler = core.program.methods[method.0 as usize]
            .handlers
            .iter()
            .find(|h| {
                h.start <= pc
                    && pc < h.end
                    && h.class.map(|c| core.program.is_subclass(ex_class, c)).unwrap_or(true)
            })
            .copied();
        if let Some(h) = handler {
            let frame = core.thread_mut(t).frame_mut();
            frame.stack.clear();
            frame.stack.push(Value::Ref(ex));
            frame.pc = h.target;
            core.thread_mut(t).unwinding = None;
            return Ok(());
        }
        // No handler here: release a synchronized method's monitor and pop.
        let sync_obj = core.thread(t).frame().sync_obj;
        if let Some(obj) = sync_obj {
            core.release_monitor(coord, t, obj).map_err(|_| {
                VmError::Internal("sync frame did not own its monitor during unwind".into())
            })?;
        }
        let th = core.thread_mut(t);
        if let Some(frame) = th.frames.pop() {
            th.spare_frames.push(frame);
        }
    }
}

// ----- invocation and return -----

/// Begins invoking `mid`. Returns `true` if the frame was pushed (or the
/// invocation completed); `false` if the thread blocked acquiring a
/// synchronized method's monitor (the instruction will re-execute).
fn do_invoke(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    mid: crate::bytecode::MethodId,
    explicit_receiver: Option<ObjRef>,
) -> Result<bool, VmError> {
    let (n_args, n_locals, synchronized, is_static, class) = {
        let m = &core.program.methods[mid.0 as usize];
        (m.n_args, m.n_locals, m.synchronized, m.is_static, m.class)
    };
    if synchronized {
        let lock_obj = if is_static {
            let c = class
                .ok_or_else(|| VmError::Internal("synchronized static without class".into()))?;
            core.class_objects[c.0 as usize]
        } else {
            match explicit_receiver {
                Some(r) => r,
                None => {
                    // Receiver is the deepest of the arguments still on the
                    // stack (not popped until acquisition succeeds).
                    let stack = &core.thread(t).frame().stack;
                    let idx = stack
                        .len()
                        .checked_sub(n_args as usize)
                        .ok_or_else(|| type_err("missing receiver for synchronized call"))?;
                    match stack[idx] {
                        Value::Ref(r) => r,
                        Value::Null => {
                            raise_runtime(core, coord, t, excode::NULL_POINTER)?;
                            return Ok(true);
                        }
                        ref v => {
                            return Err(type_err(format!(
                                "receiver must be a reference, found {v}"
                            )))
                        }
                    }
                }
            }
        };
        match core.acquire_monitor(coord, t, lock_obj, None) {
            AcquireOutcome::Acquired => {
                self_push_frame(core, t, mid, n_args, n_locals, Some(lock_obj));
                Ok(true)
            }
            AcquireOutcome::Blocked | AcquireOutcome::Deferred => Ok(false),
        }
    } else {
        self_push_frame(core, t, mid, n_args, n_locals, None);
        Ok(true)
    }
}

fn self_push_frame(
    core: &mut VmCore,
    t: ThreadIdx,
    mid: crate::bytecode::MethodId,
    n_args: u8,
    n_locals: u16,
    sync_obj: Option<ObjRef>,
) {
    let th = core.thread_mut(t);
    // A frame popped earlier lends its buffers: a call allocates nothing
    // once the thread has been this deep before.
    let mut frame =
        th.spare_frames.pop().unwrap_or_else(|| crate::thread::Frame::new(mid, 0, Vec::new()));
    let stack = &mut th.frame_mut().stack;
    let split = stack.len() - n_args as usize;
    frame.reset(mid, n_locals, stack.drain(split..));
    frame.sync_obj = sync_obj;
    th.br_cnt += 1;
    th.frames.push(frame);
    if th.is_app() {
        core.counters.branches += 1;
    }
}

fn do_return(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    val: Option<Value>,
) -> Result<(), VmError> {
    let frame = core
        .thread_mut(t)
        .frames
        .pop()
        .ok_or_else(|| VmError::Internal("return with no frame".into()))?;
    core.thread_mut(t).br_cnt += 1;
    if core.thread(t).is_app() {
        core.counters.branches += 1;
    }
    if let Some(obj) = frame.sync_obj {
        core.release_monitor(coord, t, obj).map_err(|_| {
            VmError::Internal("sync frame did not own its monitor at return".into())
        })?;
    }
    let returns = core.program.methods[frame.method.0 as usize].returns;
    core.thread_mut(t).spare_frames.push(frame);
    if core.thread(t).frames.is_empty() {
        if core.thread(t).is_app() {
            core.finish_thread(coord, t, None);
        }
        // Finalizer thread: frames empty -> next unit pops the queue.
        return Ok(());
    }
    let caller = core.thread_mut(t).frame_mut();
    if returns {
        caller.stack.push(
            val.ok_or_else(|| VmError::Internal("value-returning method produced none".into()))?,
        );
    }
    caller.pc += 1; // past the invoke instruction
    Ok(())
}

// ----- race-detector hook -----

/// Records a shared-memory access with the lockset detector, when enabled.
fn race_access(core: &mut VmCore, t: ThreadIdx, loc: crate::race::Loc, is_write: bool) {
    if core.race.is_none() || core.thread(t).kind != ThreadKind::App {
        return;
    }
    let (threads, race) = (&core.threads, &mut core.race);
    let held = &threads[t.0 as usize].held_for_race;
    if let Some(d) = race {
        d.on_access(loc, t, held, is_write);
    }
}

// ----- allocation helpers -----

fn heap_locked_by_other(core: &VmCore, t: ThreadIdx) -> bool {
    let holder = core.internal_locks[core.heap_lock.0].holder;
    holder.is_some() && holder != Some(t)
}

/// Blocks `t` on the heap lock (GC in progress); the instruction will
/// re-execute once the collector releases it.
fn block_on_heap_lock(core: &mut VmCore, t: ThreadIdx) {
    let heap_lock = core.heap_lock;
    let took = core.internal_try_lock(heap_lock, t);
    debug_assert!(!took, "caller checked the lock was held by another thread");
}

fn alloc_counted(
    core: &mut VmCore,
    entry_is_array: bool,
    class: crate::bytecode::ClassId,
    size: usize,
) -> Result<ObjRef, VmError> {
    let r = if entry_is_array {
        core.heap.alloc_array(size)
    } else {
        core.heap.alloc_obj(class, size as u16)
    }
    .map_err(|_| VmError::OutOfMemory)?;
    core.counters.allocations += 1;
    let cost = core.cfg.cost.alloc;
    core.charge_base(cost);
    core.maybe_request_gc();
    Ok(r)
}

// ----- the instruction interpreter -----

#[allow(clippy::too_many_lines)]
fn exec_insn(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
) -> Result<(), VmError> {
    let (method, pc) = {
        let f = core.thread(t).frame();
        (f.method, f.pc)
    };
    let insn = core.program.methods[method.0 as usize].code[pc as usize];
    if core.profile.is_some() {
        // Legacy per-unit path (Match engine, or a 1-unit budget): counted
        // as a chain break — these units are never fusion candidates.
        let c = decode_one(insn, &core.program).code;
        if let Some(p) = core.profile.as_mut() {
            p.note_break(c);
        }
    }
    let is_app = core.thread(t).kind == ThreadKind::App;
    // Base interpretation cost.
    let mut cost = core.cfg.cost.insn_base;
    if insn.is_control_flow() {
        cost += core.cfg.cost.branch_extra;
    }
    core.charge_base(cost);
    if is_app {
        core.counters.instructions += 1;
    }

    macro_rules! stack {
        () => {
            &mut core.thread_mut(t).frame_mut().stack
        };
    }
    macro_rules! advance {
        () => {{
            core.thread_mut(t).frame_mut().pc += 1;
        }};
    }
    macro_rules! branch_to {
        ($target:expr) => {{
            core.thread_mut(t).frame_mut().pc = $target;
            core.thread_mut(t).br_cnt += 1;
            if is_app {
                core.counters.branches += 1;
            }
        }};
    }

    match insn {
        Insn::Nop => advance!(),
        Insn::Const(v) => {
            stack!().push(Value::Int(v));
            advance!();
        }
        Insn::DConst(v) => {
            stack!().push(Value::Double(v));
            advance!();
        }
        Insn::ConstNull => {
            stack!().push(Value::Null);
            advance!();
        }
        Insn::ConstStr(sid) => {
            if heap_locked_by_other(core, t) {
                block_on_heap_lock(core, t);
                return Ok(());
            }
            let bytes: Vec<u8> = core.program.strings[sid.0 as usize].bytes().collect();
            let arr = alloc_counted(core, true, builtin::OBJECT, bytes.len())?;
            if let Some(HeapEntry::Arr { elems }) = core.heap.get_mut(arr) {
                for (slot, b) in elems.iter_mut().zip(bytes.iter()) {
                    *slot = Value::Int(*b as i64);
                }
            }
            stack!().push(Value::Ref(arr));
            advance!();
        }
        Insn::Dup => {
            let s = stack!();
            let top = *s.last().ok_or_else(|| type_err("dup on empty stack"))?;
            s.push(top);
            advance!();
        }
        Insn::DupX1 => {
            let s = stack!();
            let v1 = pop(s)?;
            let v2 = pop(s)?;
            s.push(v1);
            s.push(v2);
            s.push(v1);
            advance!();
        }
        Insn::Pop => {
            pop(stack!())?;
            advance!();
        }
        Insn::Swap => {
            let s = stack!();
            let a = pop(s)?;
            let b = pop(s)?;
            s.push(a);
            s.push(b);
            advance!();
        }
        Insn::Load(n) => {
            let v = core.thread(t).frame().locals[n as usize];
            stack!().push(v);
            advance!();
        }
        Insn::Store(n) => {
            let v = pop(stack!())?;
            core.thread_mut(t).frame_mut().locals[n as usize] = v;
            advance!();
        }
        Insn::Inc(n, delta) => {
            let f = core.thread_mut(t).frame_mut();
            let cur = f.locals[n as usize]
                .as_int()
                .map_err(|v| type_err(format!("inc of non-int local: {v}")))?;
            f.locals[n as usize] = Value::Int(cur.wrapping_add(delta as i64));
            advance!();
        }
        Insn::Add
        | Insn::Sub
        | Insn::Mul
        | Insn::And
        | Insn::Or
        | Insn::Xor
        | Insn::Shl
        | Insn::Shr => {
            let s = stack!();
            let b = pop_int(s)?;
            let a = pop_int(s)?;
            let r = match insn {
                Insn::Add => a.wrapping_add(b),
                Insn::Sub => a.wrapping_sub(b),
                Insn::Mul => a.wrapping_mul(b),
                Insn::And => a & b,
                Insn::Or => a | b,
                Insn::Xor => a ^ b,
                Insn::Shl => a.wrapping_shl(b as u32 & 63),
                Insn::Shr => a.wrapping_shr(b as u32 & 63),
                _ => unreachable!(),
            };
            s.push(Value::Int(r));
            advance!();
        }
        Insn::Div | Insn::Rem => {
            let s = stack!();
            let b = pop_int(s)?;
            let a = pop_int(s)?;
            if b == 0 {
                return raise_runtime(core, coord, t, excode::ARITHMETIC);
            }
            let r = if matches!(insn, Insn::Div) { a.wrapping_div(b) } else { a.wrapping_rem(b) };
            s.push(Value::Int(r));
            advance!();
        }
        Insn::Neg => {
            let s = stack!();
            let a = pop_int(s)?;
            s.push(Value::Int(a.wrapping_neg()));
            advance!();
        }
        Insn::DAdd | Insn::DSub | Insn::DMul | Insn::DDiv => {
            let s = stack!();
            let b = pop_double(s)?;
            let a = pop_double(s)?;
            let r = match insn {
                Insn::DAdd => a + b,
                Insn::DSub => a - b,
                Insn::DMul => a * b,
                Insn::DDiv => a / b,
                _ => unreachable!(),
            };
            s.push(Value::Double(r));
            advance!();
        }
        Insn::I2D => {
            let s = stack!();
            let a = pop_int(s)?;
            s.push(Value::Double(a as f64));
            advance!();
        }
        Insn::D2I => {
            let s = stack!();
            let a = pop_double(s)?;
            let r = if a.is_nan() { 0 } else { a as i64 };
            s.push(Value::Int(r));
            advance!();
        }
        Insn::ICmp(c) => {
            let s = stack!();
            let b = pop_int(s)?;
            let a = pop_int(s)?;
            let ord = match a.cmp(&b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            };
            s.push(Value::from(c.eval_ord(ord)));
            advance!();
        }
        Insn::DCmp(c) => {
            let s = stack!();
            let b = pop_double(s)?;
            let a = pop_double(s)?;
            let result = match a.partial_cmp(&b) {
                Some(std::cmp::Ordering::Less) => c.eval_ord(-1),
                Some(std::cmp::Ordering::Equal) => c.eval_ord(0),
                Some(std::cmp::Ordering::Greater) => c.eval_ord(1),
                None => matches!(c, Cmp::Ne), // NaN
            };
            s.push(Value::from(result));
            advance!();
        }
        Insn::RefEq => {
            let s = stack!();
            let b = pop(s)?;
            let a = pop(s)?;
            let eq = match (a, b) {
                (Value::Null, Value::Null) => true,
                (Value::Ref(x), Value::Ref(y)) => x == y,
                _ => false,
            };
            s.push(Value::from(eq));
            advance!();
        }
        Insn::Goto(target) => branch_to!(target),
        Insn::If(target) => {
            let v = pop(stack!())?;
            if v.is_truthy() {
                branch_to!(target);
            } else {
                core.thread_mut(t).br_cnt += 1;
                if is_app {
                    core.counters.branches += 1;
                }
                advance!();
            }
        }
        Insn::IfNot(target) => {
            let v = pop(stack!())?;
            if !v.is_truthy() {
                branch_to!(target);
            } else {
                core.thread_mut(t).br_cnt += 1;
                if is_app {
                    core.counters.branches += 1;
                }
                advance!();
            }
        }
        Insn::IfNull(target) => {
            let v = pop(stack!())?;
            if v.is_null() {
                branch_to!(target);
            } else {
                core.thread_mut(t).br_cnt += 1;
                if is_app {
                    core.counters.branches += 1;
                }
                advance!();
            }
        }
        Insn::InvokeStatic(mid) => {
            // May block on a synchronized method's monitor; pc advances at
            // return, not here.
            let _ = do_invoke(core, coord, t, mid, None)?;
        }
        Insn::InvokeVirtual(slot, argc) => {
            let receiver = {
                let stack = &core.thread(t).frame().stack;
                let idx = stack
                    .len()
                    .checked_sub(argc as usize)
                    .ok_or_else(|| type_err("missing receiver for virtual call"))?;
                stack[idx]
            };
            let r = match receiver {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => {
                    return Err(type_err(format!(
                        "virtual call receiver must be a reference, found {v}"
                    )))
                }
            };
            let Some(class) = core.heap.class_of(r) else {
                return raise_runtime(core, coord, t, excode::BAD_DISPATCH);
            };
            let Some(mid) = core.program.classes[class.0 as usize].resolve(slot) else {
                return raise_runtime(core, coord, t, excode::BAD_DISPATCH);
            };
            let _ = do_invoke(core, coord, t, mid, Some(r))?;
        }
        Insn::InvokeNative(nid, argc) => {
            begin_native(core, natives, coord, t, nid, argc)?;
        }
        Insn::Ret => do_return(core, coord, t, None)?,
        Insn::RetVal => {
            let v = pop(stack!())?;
            do_return(core, coord, t, Some(v))?;
        }
        Insn::New(cid) => {
            if heap_locked_by_other(core, t) {
                block_on_heap_lock(core, t);
                return Ok(());
            }
            let n_fields = core.program.classes[cid.0 as usize].n_fields;
            let obj = alloc_counted(core, false, cid, n_fields as usize)?;
            stack!().push(Value::Ref(obj));
            advance!();
        }
        Insn::GetField(slot) => {
            let s = stack!();
            let obj = pop(s)?;
            let r = match obj {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("getfield on non-reference {v}"))),
            };
            let v = match core.heap.get(r) {
                Some(HeapEntry::Obj { fields, .. }) => *fields
                    .get(slot as usize)
                    .ok_or_else(|| type_err(format!("field slot {slot} out of range")))?,
                Some(HeapEntry::Arr { .. }) => return Err(type_err("getfield on array")),
                None => return Err(VmError::DanglingRef { detail: format!("getfield on {r}") }),
            };
            race_access(core, t, crate::race::Loc::Field(r, slot), false);
            stack!().push(v);
            advance!();
        }
        Insn::PutField(slot) => {
            let s = stack!();
            let v = pop(s)?;
            let obj = pop(s)?;
            let r = match obj {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("putfield on non-reference {v}"))),
            };
            match core.heap.get_mut(r) {
                Some(HeapEntry::Obj { fields, .. }) => {
                    let f = fields
                        .get_mut(slot as usize)
                        .ok_or_else(|| type_err(format!("field slot {slot} out of range")))?;
                    *f = v;
                }
                Some(HeapEntry::Arr { .. }) => return Err(type_err("putfield on array")),
                None => return Err(VmError::DanglingRef { detail: format!("putfield on {r}") }),
            }
            race_access(core, t, crate::race::Loc::Field(r, slot), true);
            advance!();
        }
        Insn::GetStatic(cid, slot) => {
            let v = *core.statics[cid.0 as usize]
                .get(slot as usize)
                .ok_or_else(|| type_err(format!("static slot {slot} out of range")))?;
            race_access(core, t, crate::race::Loc::Static(cid, slot), false);
            stack!().push(v);
            advance!();
        }
        Insn::PutStatic(cid, slot) => {
            let v = pop(stack!())?;
            let f = core.statics[cid.0 as usize]
                .get_mut(slot as usize)
                .ok_or_else(|| type_err(format!("static slot {slot} out of range")))?;
            *f = v;
            race_access(core, t, crate::race::Loc::Static(cid, slot), true);
            advance!();
        }
        Insn::ClassObj(cid) => {
            let obj = core.class_objects[cid.0 as usize];
            stack!().push(Value::Ref(obj));
            advance!();
        }
        Insn::NewArray => {
            if heap_locked_by_other(core, t) {
                block_on_heap_lock(core, t);
                return Ok(());
            }
            // Peek (not pop) the length so the instruction can re-execute
            // if it blocks on the heap lock.
            let len = {
                let s = &core.thread(t).frame().stack;
                (*s.last().ok_or_else(|| type_err("newarray on empty stack"))?)
                    .as_int()
                    .map_err(|v| type_err(format!("array length must be int, found {v}")))?
            };
            if len < 0 {
                return raise_runtime(core, coord, t, excode::NEGATIVE_ARRAY_SIZE);
            }
            let arr = alloc_counted(core, true, builtin::OBJECT, len as usize)?;
            let s = stack!();
            s.pop();
            s.push(Value::Ref(arr));
            advance!();
        }
        Insn::ALoad => {
            let s = stack!();
            let idx = pop_int(s)?;
            let arr = pop(s)?;
            let r = match arr {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("aload on non-reference {v}"))),
            };
            let v = match core.heap.get(r) {
                Some(HeapEntry::Arr { elems }) => {
                    if idx < 0 || idx as usize >= elems.len() {
                        return raise_runtime(core, coord, t, excode::ARRAY_BOUNDS);
                    }
                    elems[idx as usize]
                }
                Some(HeapEntry::Obj { .. }) => return Err(type_err("aload on object")),
                None => return Err(VmError::DanglingRef { detail: format!("aload on {r}") }),
            };
            race_access(core, t, crate::race::Loc::Array(r), false);
            stack!().push(v);
            advance!();
        }
        Insn::AStore => {
            let s = stack!();
            let v = pop(s)?;
            let idx = pop_int(s)?;
            let arr = pop(s)?;
            let r = match arr {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("astore on non-reference {v}"))),
            };
            match core.heap.get_mut(r) {
                Some(HeapEntry::Arr { elems }) => {
                    if idx < 0 || idx as usize >= elems.len() {
                        return raise_runtime(core, coord, t, excode::ARRAY_BOUNDS);
                    }
                    elems[idx as usize] = v;
                }
                Some(HeapEntry::Obj { .. }) => return Err(type_err("astore on object")),
                None => return Err(VmError::DanglingRef { detail: format!("astore on {r}") }),
            }
            race_access(core, t, crate::race::Loc::Array(r), true);
            advance!();
        }
        Insn::ALen => {
            let s = stack!();
            let arr = pop(s)?;
            let r = match arr {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("arraylength on non-reference {v}"))),
            };
            let len = match core.heap.get(r) {
                Some(HeapEntry::Arr { elems }) => elems.len() as i64,
                Some(HeapEntry::Obj { .. }) => return Err(type_err("arraylength on object")),
                None => return Err(VmError::DanglingRef { detail: format!("arraylength on {r}") }),
            };
            stack!().push(Value::Int(len));
            advance!();
        }
        Insn::MonitorEnter => {
            // Peek until acquired (the instruction re-executes if blocked).
            let top = {
                let s = &core.thread(t).frame().stack;
                *s.last().ok_or_else(|| type_err("monitorenter on empty stack"))?
            };
            let obj = match top {
                Value::Ref(r) => r,
                Value::Null => {
                    pop(stack!())?;
                    return raise_runtime(core, coord, t, excode::NULL_POINTER);
                }
                v => return Err(type_err(format!("monitorenter on non-reference {v}"))),
            };
            match core.acquire_monitor(coord, t, obj, None) {
                AcquireOutcome::Acquired => {
                    pop(stack!())?;
                    advance!();
                }
                AcquireOutcome::Blocked | AcquireOutcome::Deferred => {}
            }
        }
        Insn::MonitorExit => {
            let v = pop(stack!())?;
            let obj = match v {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("monitorexit on non-reference {v}"))),
            };
            match core.release_monitor(coord, t, obj) {
                Ok(()) => advance!(),
                Err(_) => return raise_runtime(core, coord, t, excode::ILLEGAL_MONITOR),
            }
        }
        Insn::Throw => {
            let v = pop(stack!())?;
            core.thread_mut(t).br_cnt += 1;
            if is_app {
                core.counters.branches += 1;
            }
            let obj = match v {
                Value::Ref(r) => r,
                Value::Null => return raise_runtime(core, coord, t, excode::NULL_POINTER),
                v => return Err(type_err(format!("throw of non-reference {v}"))),
            };
            return raise_obj(core, coord, t, obj);
        }
    }
    Ok(())
}

// ----- the segment executor -----

/// Why a straight-line fast run stopped.
enum FastExit {
    /// Budget or `stop_br` reached (or no frame): return to the caller.
    Out,
    /// A raise condition was detected at the current pc; the outer loop
    /// charges the unit and unwinds.
    Raise(i64),
    /// The (unexecuted) op at pc needs the outer loop: a breaker, an
    /// invocation, a return, or an allocation.
    Cold(DOp),
}

/// The innermost frame of `t`, as a typed error instead of a panic.
fn frame_of(core: &VmCore, t: ThreadIdx) -> Result<&crate::thread::Frame, VmError> {
    core.thread(t).frames.last().ok_or_else(|| VmError::Internal("thread has no frames".into()))
}

fn frame_mut_of(core: &mut VmCore, t: ThreadIdx) -> Result<&mut crate::thread::Frame, VmError> {
    core.thread_mut(t)
        .frames
        .last_mut()
        .ok_or_else(|| VmError::Internal("thread has no frames".into()))
}

/// Executes a block of the current (application) thread under one
/// already-performed `check_preempt` consult: at most `budget` units,
/// ending early when `stop_br` is reached (the backup's exact-replay
/// bound), a breaker op is hit, a raise unwinds, or the thread leaves the
/// Runnable state. Straight-line runs of quiet instructions execute in
/// [`fast_run`] with hoisted borrows and batched accounting; branches,
/// plain invocations, returns, and allocations are handled here between
/// runs, with per-unit charges identical to [`exec_unit`]'s.
///
/// Returns the number of units executed. `0` means the instruction at pc
/// coordinates (breaker, synchronized call/return, heap-locked
/// allocation) and must run through the legacy [`exec_unit`] path under
/// the same consult.
pub(crate) fn exec_segment(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    budget: u64,
    stop_br: Option<u64>,
) -> Result<u64, VmError> {
    let Some(t) = core.current else {
        return Err(VmError::Internal("exec_segment requires a dispatched thread".into()));
    };
    let fused = core.cfg.engine == DispatchEngine::Fused;
    let insn_base = core.cfg.cost.insn_base;
    let branch_extra = core.cfg.cost.branch_extra;
    let mut executed = 0u64;
    loop {
        if executed >= budget || core.current != Some(t) {
            return Ok(executed);
        }
        {
            let th = core.thread(t);
            if th.state != ThreadState::Runnable || th.native.is_some() || th.frames.is_empty() {
                return Ok(executed);
            }
            if let Some(sb) = stop_br {
                if th.br_cnt >= sb {
                    return Ok(executed);
                }
            }
        }
        let (n, cf, exit) = {
            let VmCore {
                threads,
                heap,
                statics,
                race,
                profile,
                class_objects,
                program,
                decoded,
                ..
            } = core;
            let run = match (fused, profile.is_some()) {
                (true, false) => fast_run::<true, false>,
                (true, true) => fast_run::<true, true>,
                (false, false) => fast_run::<false, false>,
                (false, true) => fast_run::<false, true>,
            };
            run(
                t,
                &mut threads[t.0 as usize],
                heap,
                statics,
                race,
                profile,
                class_objects,
                program,
                fused.then_some(&**decoded),
                budget - executed,
                stop_br,
            )?
        };
        if n > 0 {
            // The batched equivalent of n per-unit base charges.
            core.charge_base(SimTime::from_nanos(
                insn_base.as_nanos() * n + branch_extra.as_nanos() * cf,
            ));
            core.counters.instructions += n;
            core.counters.branches += cf;
            executed += n;
        }
        let op = match exit {
            FastExit::Out => return Ok(executed),
            FastExit::Raise(code) => {
                core.charge_base(insn_base);
                core.counters.instructions += 1;
                executed += 1;
                raise_runtime(core, coord, t, code)?;
                // Unwinding moved the pc (or killed the thread): the
                // straight-line invariant is gone, so the block ends and
                // the next consult recomputes the budget at the handler.
                return Ok(executed);
            }
            FastExit::Cold(op) => op,
        };
        if op.is_breaker() {
            // Monitor ops, natives, throws, synchronized static calls:
            // legacy path (executed == 0) or end of block.
            return Ok(executed);
        }
        match op.code {
            OpCode::InvokeStatic => {
                // Non-synchronized (synchronized callees carry
                // `F_BREAKER`), so the invocation never blocks.
                core.charge_base(insn_base + branch_extra);
                core.counters.instructions += 1;
                executed += 1;
                if let Some(p) = core.profile.as_mut() {
                    p.note_break(op.code);
                }
                if fused {
                    // Quickened: the callee's frame shape was folded into
                    // the op at decode time, so the invoke prologue skips
                    // the method-table read entirely.
                    self_push_frame(core, t, MethodId(op.a), op.b as u8, op.imm as u16, None);
                } else {
                    let _ = do_invoke(core, coord, t, MethodId(op.a), None)?;
                }
            }
            OpCode::InvokeVirtual => {
                let receiver = {
                    let stack = &frame_of(core, t)?.stack;
                    let idx = stack
                        .len()
                        .checked_sub(op.b as usize)
                        .ok_or_else(|| type_err("missing receiver for virtual call"))?;
                    stack[idx]
                };
                let r = match receiver {
                    Value::Ref(r) => Some(r),
                    Value::Null => None,
                    v => {
                        return Err(type_err(format!(
                            "virtual call receiver must be a reference, found {v}"
                        )))
                    }
                };
                let class = r.and_then(|r| core.heap.class_of(r));
                // Monomorphic inline cache (decoded streams only: `op.imm`
                // is the decode-time site id, `NO_IC` under `Match`). A hit
                // skips the vtable walk and the method-table reads; the
                // cached facts are those the resolve below would produce,
                // so the hit and miss paths are observably identical.
                if op.imm >= 0 && class.is_some() {
                    let e = core.ics[op.imm as usize];
                    if e.class == class {
                        if e.sync {
                            // Acquires the receiver's monitor: legacy
                            // path (executed == 0) or end of block.
                            return Ok(executed);
                        }
                        core.charge_base(insn_base + branch_extra);
                        core.counters.instructions += 1;
                        executed += 1;
                        if let Some(p) = core.profile.as_mut() {
                            p.note_break(op.code);
                        }
                        self_push_frame(core, t, e.target, e.n_args, e.n_locals, None);
                        continue;
                    }
                }
                let target = class.and_then(|class| {
                    core.program.classes[class.0 as usize].resolve(VSlot(op.a as u16))
                });
                match (r, target) {
                    (None, _) => {
                        core.charge_base(insn_base + branch_extra);
                        core.counters.instructions += 1;
                        executed += 1;
                        raise_runtime(core, coord, t, excode::NULL_POINTER)?;
                        return Ok(executed);
                    }
                    (Some(_), None) => {
                        core.charge_base(insn_base + branch_extra);
                        core.counters.instructions += 1;
                        executed += 1;
                        raise_runtime(core, coord, t, excode::BAD_DISPATCH)?;
                        return Ok(executed);
                    }
                    (Some(r), Some(mid)) => {
                        let m = &core.program.methods[mid.0 as usize];
                        let (sync, n_args, n_locals) = (m.synchronized, m.n_args, m.n_locals);
                        if op.imm >= 0 {
                            // Fill (or monomorphically rewrite) the site.
                            // Never stale: vtables are immutable, so a
                            // class always resolves to the same target.
                            core.ics[op.imm as usize] = crate::decoded::IcEntry {
                                class,
                                target: mid,
                                sync,
                                n_args,
                                n_locals,
                            };
                        }
                        if sync {
                            // Acquires the receiver's monitor: legacy path
                            // (executed == 0) or end of block.
                            return Ok(executed);
                        }
                        core.charge_base(insn_base + branch_extra);
                        core.counters.instructions += 1;
                        executed += 1;
                        if let Some(p) = core.profile.as_mut() {
                            p.note_break(op.code);
                        }
                        let _ = do_invoke(core, coord, t, mid, Some(r))?;
                    }
                }
            }
            OpCode::Ret | OpCode::RetVal => {
                if frame_of(core, t)?.sync_obj.is_some() {
                    // Releases the method's monitor: legacy path or end.
                    return Ok(executed);
                }
                core.charge_base(insn_base + branch_extra);
                core.counters.instructions += 1;
                executed += 1;
                if let Some(p) = core.profile.as_mut() {
                    p.note_break(op.code);
                }
                let val = if matches!(op.code, OpCode::RetVal) {
                    Some(pop(&mut frame_mut_of(core, t)?.stack)?)
                } else {
                    None
                };
                do_return(core, coord, t, val)?;
            }
            OpCode::ConstStr => {
                if heap_locked_by_other(core, t) {
                    return Ok(executed);
                }
                core.charge_base(insn_base);
                core.counters.instructions += 1;
                executed += 1;
                if let Some(p) = core.profile.as_mut() {
                    p.note_break(op.code);
                }
                let arr = if fused {
                    // Quickened: copy the pre-materialized value template
                    // built at decode time instead of re-walking UTF-8.
                    let len = core.decoded.strings[op.a as usize].len();
                    let arr = alloc_counted(core, true, builtin::OBJECT, len)?;
                    let VmCore { heap, decoded, .. } = core;
                    if let Some(HeapEntry::Arr { elems }) = heap.get_mut(arr) {
                        elems.copy_from_slice(&decoded.strings[op.a as usize]);
                    }
                    arr
                } else {
                    let bytes: Vec<u8> = core.program.strings[op.a as usize].bytes().collect();
                    let arr = alloc_counted(core, true, builtin::OBJECT, bytes.len())?;
                    if let Some(HeapEntry::Arr { elems }) = core.heap.get_mut(arr) {
                        for (slot, b) in elems.iter_mut().zip(bytes.iter()) {
                            *slot = Value::Int(*b as i64);
                        }
                    }
                    arr
                };
                let f = frame_mut_of(core, t)?;
                f.stack.push(Value::Ref(arr));
                f.pc += 1;
            }
            OpCode::New => {
                if heap_locked_by_other(core, t) {
                    return Ok(executed);
                }
                core.charge_base(insn_base);
                core.counters.instructions += 1;
                executed += 1;
                if let Some(p) = core.profile.as_mut() {
                    p.note_break(op.code);
                }
                let n_fields = core.program.classes[op.a as usize].n_fields;
                let obj = alloc_counted(core, false, ClassId(op.a as u16), n_fields as usize)?;
                let f = frame_mut_of(core, t)?;
                f.stack.push(Value::Ref(obj));
                f.pc += 1;
            }
            OpCode::NewArray => {
                if heap_locked_by_other(core, t) {
                    return Ok(executed);
                }
                core.charge_base(insn_base);
                core.counters.instructions += 1;
                executed += 1;
                if let Some(p) = core.profile.as_mut() {
                    p.note_break(op.code);
                }
                let len = {
                    let s = &frame_of(core, t)?.stack;
                    (*s.last().ok_or_else(|| type_err("newarray on empty stack"))?)
                        .as_int()
                        .map_err(|v| type_err(format!("array length must be int, found {v}")))?
                };
                if len < 0 {
                    raise_runtime(core, coord, t, excode::NEGATIVE_ARRAY_SIZE)?;
                    return Ok(executed);
                }
                let arr = alloc_counted(core, true, builtin::OBJECT, len as usize)?;
                let f = frame_mut_of(core, t)?;
                f.stack.pop();
                f.stack.push(Value::Ref(arr));
                f.pc += 1;
            }
            other => {
                return Err(VmError::Internal(format!("op {other:?} escaped the fast loop")));
            }
        }
    }
}

/// The straight-line hot loop: executes quiet decoded ops with the frame
/// borrow hoisted across the whole run and accounting batched into
/// `(units, control_flow)` counts for the caller to flush. Ops that need
/// `&mut VmCore` (invocations, returns, allocations, breakers) and raise
/// conditions break out unexecuted.
///
/// Monomorphized on the engine (`FUSED`: fetch from the fused stream, else
/// re-decode each `Insn`) and on op profiling (`PROFILE`), so neither
/// choice costs a branch per op; `decoded` is `Some` exactly when `FUSED`.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn fast_run<const FUSED: bool, const PROFILE: bool>(
    t: ThreadIdx,
    th: &mut crate::thread::VmThread,
    heap: &mut Heap,
    statics: &mut [Vec<Value>],
    race: &mut Option<crate::race::RaceDetector>,
    profile: &mut Option<crate::profile::OpProfiler>,
    class_objects: &[ObjRef],
    program: &Program,
    decoded: Option<&DecodedProgram>,
    remaining: u64,
    stop_br: Option<u64>,
) -> Result<(u64, u64, FastExit), VmError> {
    use crate::race::Loc;
    let crate::thread::VmThread { frames, br_cnt, held_for_race, .. } = th;
    let Some(frame) = frames.last_mut() else {
        return Ok((0, 0, FastExit::Out));
    };
    let crate::thread::Frame { method, pc, locals, stack, .. } = frame;
    let method = *method;
    // Dispatch stream and the quickened-singles fallback stream for
    // superinstructions that don't fit the budget (`Match`: neither).
    let (dops, qops): (&[DOp], &[DOp]) = match decoded {
        Some(d) => {
            let m = &d.methods[method.0 as usize];
            (m.fused.as_slice(), m.quick.as_slice())
        }
        None => (&[], &[]),
    };
    let code = program.methods[method.0 as usize].code.as_slice();
    let mut n = 0u64;
    let mut cf = 0u64;
    let mut prof_last = usize::MAX;

    macro_rules! raise {
        ($code:expr) => {
            break FastExit::Raise($code)
        };
    }
    // A branch op: one unit, one control-flow bump, then the `stop_br`
    // check that implements the backup's exact-replay bound.
    macro_rules! take_branch {
        ($target:expr) => {{
            *pc = $target;
            *br_cnt += 1;
            cf += 1;
            n += 1;
            if stop_br == Some(*br_cnt) {
                break FastExit::Out;
            }
            continue;
        }};
    }
    macro_rules! skip_branch {
        () => {{
            *pc += 1;
            *br_cnt += 1;
            cf += 1;
            n += 1;
            if stop_br == Some(*br_cnt) {
                break FastExit::Out;
            }
            continue;
        }};
    }
    macro_rules! track {
        ($loc:expr, $w:expr) => {
            if let Some(d) = race.as_mut() {
                d.on_access($loc, t, held_for_race, $w);
            }
        };
    }

    let exit = 'run: loop {
        if n >= remaining {
            break FastExit::Out;
        }
        let i = *pc as usize;
        let mut op = if FUSED { dops[i] } else { decode_one(code[i], program) };
        if op.flags != 0 {
            let flen = op.flags >> F_FUSE_SHIFT;
            if flen == 0 {
                break FastExit::Cold(op);
            }
            // Budget-fit rule: a superinstruction of `flen` constituents
            // executes only when all of them fit in the remaining budget;
            // otherwise fall back to the quickened single at the same pc so
            // every intermediate (br_cnt, pc) the backup may replay to stays
            // reachable.
            if n + u64::from(flen) > remaining {
                op = qops[i];
            }
        }
        if PROFILE {
            if let Some(p) = profile.as_mut() {
                p.note(op.code, i == prof_last.wrapping_add(1));
                prof_last = i;
            }
        }
        match op.code {
            OpCode::Nop => *pc += 1,
            OpCode::ConstI => {
                stack.push(Value::Int(op.imm));
                *pc += 1;
            }
            OpCode::ConstD => {
                stack.push(Value::Double(f64::from_bits(op.imm as u64)));
                *pc += 1;
            }
            OpCode::ConstNull => {
                stack.push(Value::Null);
                *pc += 1;
            }
            OpCode::Dup => {
                let top = *stack.last().ok_or_else(|| type_err("dup on empty stack"))?;
                stack.push(top);
                *pc += 1;
            }
            OpCode::DupX1 => {
                let v1 = pop(stack)?;
                let v2 = pop(stack)?;
                stack.push(v1);
                stack.push(v2);
                stack.push(v1);
                *pc += 1;
            }
            OpCode::Pop => {
                pop(stack)?;
                *pc += 1;
            }
            OpCode::Swap => {
                let a = pop(stack)?;
                let b = pop(stack)?;
                stack.push(a);
                stack.push(b);
                *pc += 1;
            }
            OpCode::Load => {
                stack.push(locals[op.a as usize]);
                *pc += 1;
            }
            OpCode::Store => {
                locals[op.a as usize] = pop(stack)?;
                *pc += 1;
            }
            OpCode::Inc => {
                let slot = &mut locals[op.a as usize];
                let cur =
                    slot.as_int().map_err(|v| type_err(format!("inc of non-int local: {v}")))?;
                *slot = Value::Int(cur.wrapping_add(op.imm));
                *pc += 1;
            }
            OpCode::Add
            | OpCode::Sub
            | OpCode::Mul
            | OpCode::And
            | OpCode::Or
            | OpCode::Xor
            | OpCode::Shl
            | OpCode::Shr => {
                let b = pop_int(stack)?;
                let a = pop_int(stack)?;
                let r = match op.code {
                    OpCode::Add => a.wrapping_add(b),
                    OpCode::Sub => a.wrapping_sub(b),
                    OpCode::Mul => a.wrapping_mul(b),
                    OpCode::And => a & b,
                    OpCode::Or => a | b,
                    OpCode::Xor => a ^ b,
                    OpCode::Shl => a.wrapping_shl(b as u32 & 63),
                    _ => a.wrapping_shr(b as u32 & 63),
                };
                stack.push(Value::Int(r));
                *pc += 1;
            }
            OpCode::Div | OpCode::Rem => {
                let b = pop_int(stack)?;
                let a = pop_int(stack)?;
                if b == 0 {
                    raise!(excode::ARITHMETIC);
                }
                let r = if matches!(op.code, OpCode::Div) {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                stack.push(Value::Int(r));
                *pc += 1;
            }
            OpCode::Neg => {
                let a = pop_int(stack)?;
                stack.push(Value::Int(a.wrapping_neg()));
                *pc += 1;
            }
            OpCode::DAdd | OpCode::DSub | OpCode::DMul | OpCode::DDiv => {
                let b = pop_double(stack)?;
                let a = pop_double(stack)?;
                let r = match op.code {
                    OpCode::DAdd => a + b,
                    OpCode::DSub => a - b,
                    OpCode::DMul => a * b,
                    _ => a / b,
                };
                stack.push(Value::Double(r));
                *pc += 1;
            }
            OpCode::I2D => {
                let a = pop_int(stack)?;
                stack.push(Value::Double(a as f64));
                *pc += 1;
            }
            OpCode::D2I => {
                let a = pop_double(stack)?;
                stack.push(Value::Int(if a.is_nan() { 0 } else { a as i64 }));
                *pc += 1;
            }
            OpCode::ICmp => {
                let b = pop_int(stack)?;
                let a = pop_int(stack)?;
                let ord = match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                stack.push(Value::from(cmp_of(op.a).eval_ord(ord)));
                *pc += 1;
            }
            OpCode::DCmp => {
                let b = pop_double(stack)?;
                let a = pop_double(stack)?;
                let c = cmp_of(op.a);
                let result = match a.partial_cmp(&b) {
                    Some(std::cmp::Ordering::Less) => c.eval_ord(-1),
                    Some(std::cmp::Ordering::Equal) => c.eval_ord(0),
                    Some(std::cmp::Ordering::Greater) => c.eval_ord(1),
                    None => matches!(c, Cmp::Ne), // NaN
                };
                stack.push(Value::from(result));
                *pc += 1;
            }
            OpCode::RefEq => {
                let b = pop(stack)?;
                let a = pop(stack)?;
                let eq = match (a, b) {
                    (Value::Null, Value::Null) => true,
                    (Value::Ref(x), Value::Ref(y)) => x == y,
                    _ => false,
                };
                stack.push(Value::from(eq));
                *pc += 1;
            }
            OpCode::Goto => take_branch!(op.a),
            OpCode::If => {
                let v = pop(stack)?;
                if v.is_truthy() {
                    take_branch!(op.a);
                } else {
                    skip_branch!();
                }
            }
            OpCode::IfNot => {
                let v = pop(stack)?;
                if !v.is_truthy() {
                    take_branch!(op.a);
                } else {
                    skip_branch!();
                }
            }
            OpCode::IfNull => {
                let v = pop(stack)?;
                if v.is_null() {
                    take_branch!(op.a);
                } else {
                    skip_branch!();
                }
            }
            OpCode::GetField => {
                let obj = pop(stack)?;
                let r = match obj {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("getfield on non-reference {v}"))),
                };
                let slot = op.a as u16;
                let v = match heap.get(r) {
                    Some(HeapEntry::Obj { fields, .. }) => *fields
                        .get(slot as usize)
                        .ok_or_else(|| type_err(format!("field slot {slot} out of range")))?,
                    Some(HeapEntry::Arr { .. }) => return Err(type_err("getfield on array")),
                    None => {
                        return Err(VmError::DanglingRef { detail: format!("getfield on {r}") })
                    }
                };
                track!(Loc::Field(r, slot), false);
                stack.push(v);
                *pc += 1;
            }
            OpCode::PutField => {
                let v = pop(stack)?;
                let obj = pop(stack)?;
                let r = match obj {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("putfield on non-reference {v}"))),
                };
                let slot = op.a as u16;
                match heap.get_mut(r) {
                    Some(HeapEntry::Obj { fields, .. }) => {
                        let f = fields
                            .get_mut(slot as usize)
                            .ok_or_else(|| type_err(format!("field slot {slot} out of range")))?;
                        *f = v;
                    }
                    Some(HeapEntry::Arr { .. }) => return Err(type_err("putfield on array")),
                    None => {
                        return Err(VmError::DanglingRef { detail: format!("putfield on {r}") })
                    }
                }
                track!(Loc::Field(r, slot), true);
                *pc += 1;
            }
            OpCode::GetStatic => {
                let slot = op.b as u16;
                let v = *statics[op.a as usize]
                    .get(slot as usize)
                    .ok_or_else(|| type_err(format!("static slot {slot} out of range")))?;
                track!(Loc::Static(ClassId(op.a as u16), slot), false);
                stack.push(v);
                *pc += 1;
            }
            OpCode::PutStatic => {
                let v = pop(stack)?;
                let slot = op.b as u16;
                let f = statics[op.a as usize]
                    .get_mut(slot as usize)
                    .ok_or_else(|| type_err(format!("static slot {slot} out of range")))?;
                *f = v;
                track!(Loc::Static(ClassId(op.a as u16), slot), true);
                *pc += 1;
            }
            OpCode::ClassObj => {
                stack.push(Value::Ref(class_objects[op.a as usize]));
                *pc += 1;
            }
            OpCode::ALoad => {
                let idx = pop_int(stack)?;
                let arr = pop(stack)?;
                let r = match arr {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("aload on non-reference {v}"))),
                };
                let v = match heap.get(r) {
                    Some(HeapEntry::Arr { elems }) => {
                        if idx < 0 || idx as usize >= elems.len() {
                            raise!(excode::ARRAY_BOUNDS);
                        }
                        elems[idx as usize]
                    }
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("aload on object")),
                    None => return Err(VmError::DanglingRef { detail: format!("aload on {r}") }),
                };
                track!(Loc::Array(r), false);
                stack.push(v);
                *pc += 1;
            }
            OpCode::AStore => {
                let v = pop(stack)?;
                let idx = pop_int(stack)?;
                let arr = pop(stack)?;
                let r = match arr {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("astore on non-reference {v}"))),
                };
                match heap.get_mut(r) {
                    Some(HeapEntry::Arr { elems }) => {
                        if idx < 0 || idx as usize >= elems.len() {
                            raise!(excode::ARRAY_BOUNDS);
                        }
                        elems[idx as usize] = v;
                    }
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("astore on object")),
                    None => return Err(VmError::DanglingRef { detail: format!("astore on {r}") }),
                }
                track!(Loc::Array(r), true);
                *pc += 1;
            }
            OpCode::ALen => {
                let arr = pop(stack)?;
                let r = match arr {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("arraylength on non-reference {v}"))),
                };
                let len = match heap.get(r) {
                    Some(HeapEntry::Arr { elems }) => elems.len() as i64,
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("arraylength on object")),
                    None => {
                        return Err(VmError::DanglingRef { detail: format!("arraylength on {r}") })
                    }
                };
                stack.push(Value::Int(len));
                *pc += 1;
            }
            // ----- superinstructions (fused stream only) -----
            //
            // Each fused arm does ALL of its own accounting — `n` by
            // constituent count, `cf`/`br_cnt` only at a final branch
            // constituent, `pc` by fused length — and ends with `continue`
            // so the loop-bottom `n += 1` never double-charges. A raise
            // mid-fusion first commits the completed constituents
            // (`pc`/`n` advance to the raising constituent) so the outer
            // raise path charges and unwinds at the exact same pc as the
            // equivalent run of singles.
            OpCode::FLoadIfNot => {
                // Load a; IfNot ->b  (the `spin` loop test)
                let v = locals[op.a as usize];
                if !v.is_truthy() {
                    *pc = op.b;
                } else {
                    *pc += 2;
                }
                *br_cnt += 1;
                cf += 1;
                n += 2;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FIncGoto => {
                // Inc a,imm; Goto ->b  (the loop-latch digram)
                let slot = &mut locals[op.a as usize];
                let cur =
                    slot.as_int().map_err(|v| type_err(format!("inc of non-int local: {v}")))?;
                *slot = Value::Int(cur.wrapping_add(op.imm));
                *pc = op.b;
                *br_cnt += 1;
                cf += 1;
                n += 2;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FICmpIf => {
                // ICmp a; If ->b
                let bv = pop_int(stack)?;
                let av = pop_int(stack)?;
                let ord = match av.cmp(&bv) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if cmp_of(op.a).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 2;
                }
                *br_cnt += 1;
                cf += 1;
                n += 2;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FConstArith => {
                // ConstI imm; <arith a>  — Div/Rem only fused when imm != 0,
                // so no arithmetic raise is possible here.
                let av = pop_int(stack)?;
                stack.push(Value::Int(fused_arith(op.a, av, op.imm)));
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadLoad => {
                stack.push(locals[op.a as usize]);
                stack.push(locals[op.b as usize]);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadStore => {
                // Load a; Store b  — a local-to-local move, no stack traffic.
                locals[op.b as usize] = locals[op.a as usize];
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadALoad => {
                // Load a (index); ALoad  — array ref is the current stack top.
                let idx = locals[op.a as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let arr = pop(stack)?;
                let r = match arr {
                    Value::Ref(r) => r,
                    Value::Null => {
                        *pc += 1;
                        n += 1;
                        raise!(excode::NULL_POINTER)
                    }
                    v => return Err(type_err(format!("aload on non-reference {v}"))),
                };
                let v = match heap.get(r) {
                    Some(HeapEntry::Arr { elems }) => {
                        if idx < 0 || idx as usize >= elems.len() {
                            *pc += 1;
                            n += 1;
                            raise!(excode::ARRAY_BOUNDS);
                        }
                        elems[idx as usize]
                    }
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("aload on object")),
                    None => return Err(VmError::DanglingRef { detail: format!("aload on {r}") }),
                };
                track!(Loc::Array(r), false);
                stack.push(v);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadGetField => {
                // Load a (object); GetField b
                let r = match locals[op.a as usize] {
                    Value::Ref(r) => r,
                    Value::Null => {
                        *pc += 1;
                        n += 1;
                        raise!(excode::NULL_POINTER)
                    }
                    v => return Err(type_err(format!("getfield on non-reference {v}"))),
                };
                let slot = op.b as u16;
                let v = match heap.get(r) {
                    Some(HeapEntry::Obj { fields, .. }) => *fields
                        .get(slot as usize)
                        .ok_or_else(|| type_err(format!("field slot {slot} out of range")))?,
                    Some(HeapEntry::Arr { .. }) => return Err(type_err("getfield on array")),
                    None => {
                        return Err(VmError::DanglingRef { detail: format!("getfield on {r}") })
                    }
                };
                track!(Loc::Field(r, slot), false);
                stack.push(v);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FGetStaticLoad => {
                // GetStatic a.b; Load imm
                let slot = op.b as u16;
                let v = *statics[op.a as usize]
                    .get(slot as usize)
                    .ok_or_else(|| type_err(format!("static slot {slot} out of range")))?;
                track!(Loc::Static(ClassId(op.a as u16), slot), false);
                stack.push(v);
                stack.push(locals[op.imm as usize]);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadConstICmp => {
                // Load a; ConstI imm; ICmp b  — pushes the comparison result.
                let av = locals[op.a as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let ord = match av.cmp(&op.imm) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                stack.push(Value::from(cmp_of(op.b).eval_ord(ord)));
                *pc += 3;
                n += 3;
                continue;
            }
            OpCode::FConstICmpIf => {
                // ConstI imm; ICmp a; If ->b  (the `count_loop` head tail)
                let av = pop_int(stack)?;
                let ord = match av.cmp(&op.imm) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if cmp_of(op.a).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 3;
                }
                *br_cnt += 1;
                cf += 1;
                n += 3;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FLoadLoadALoad => {
                // Load a (array); Load b (index); ALoad  (the scanner fetch)
                let idx = locals[op.b as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let r = match locals[op.a as usize] {
                    Value::Ref(r) => r,
                    Value::Null => {
                        *pc += 2;
                        n += 2;
                        raise!(excode::NULL_POINTER)
                    }
                    v => return Err(type_err(format!("aload on non-reference {v}"))),
                };
                let v = match heap.get(r) {
                    Some(HeapEntry::Arr { elems }) => {
                        if idx < 0 || idx as usize >= elems.len() {
                            *pc += 2;
                            n += 2;
                            raise!(excode::ARRAY_BOUNDS);
                        }
                        elems[idx as usize]
                    }
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("aload on object")),
                    None => return Err(VmError::DanglingRef { detail: format!("aload on {r}") }),
                };
                track!(Loc::Array(r), false);
                stack.push(v);
                *pc += 3;
                n += 3;
                continue;
            }
            OpCode::FLoadLoadArith => {
                // Load a; Load b; <arith imm>  — Div/Rem are never fused
                // here. `b` is converted first to mirror the single ops'
                // pop order on a type error.
                let bv = locals[op.b as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let av = locals[op.a as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                stack.push(Value::Int(fused_arith(op.imm as u32, av, bv)));
                *pc += 3;
                n += 3;
                continue;
            }
            OpCode::FSpin => {
                // Load a.lo; IfNot ->b; Inc a.hi,imm.lo; Goto ->imm.hi —
                // one whole spin-wait iteration per pass. Both branches
                // get their own stop check; a halt after the IfNot
                // fall-through leaves pc on the interior Inc single, a
                // replayable state. When the Goto targets this very op (a
                // self-loop, the common shape) the loop iterates in place:
                // per-iteration accounting, br_cnt bumps, and stop/budget
                // checks are identical to re-dispatching, so replay
                // alignment is unchanged — the op is simply fetched once
                // instead of once per iteration.
                let target = (op.imm >> 32) as u32;
                let delta = i64::from(op.imm as i32);
                let test = (op.a & 0xFFFF) as usize;
                let ctr = (op.a >> 16) as usize;
                let self_loop = target as usize == i;
                loop {
                    *br_cnt += 1;
                    cf += 1;
                    if !locals[test].is_truthy() {
                        *pc = op.b;
                        n += 2;
                        if stop_br == Some(*br_cnt) {
                            break 'run FastExit::Out;
                        }
                        break;
                    }
                    *pc += 2;
                    n += 2;
                    if stop_br == Some(*br_cnt) {
                        break 'run FastExit::Out;
                    }
                    let slot = &mut locals[ctr];
                    let cur = slot
                        .as_int()
                        .map_err(|v| type_err(format!("inc of non-int local: {v}")))?;
                    *slot = Value::Int(cur.wrapping_add(delta));
                    *pc = target;
                    *br_cnt += 1;
                    cf += 1;
                    n += 2;
                    if stop_br == Some(*br_cnt) {
                        break 'run FastExit::Out;
                    }
                    if !self_loop || n + 4 > remaining {
                        break;
                    }
                }
                continue;
            }
            OpCode::FLoadConstICmpIf => {
                // Load a.lo; ConstI imm; ICmp a.hi; If ->b — counted-loop
                // head.
                let av = locals[(op.a & 0xFFFF) as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let ord = match av.cmp(&op.imm) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if cmp_of(op.a >> 16).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 4;
                }
                *br_cnt += 1;
                cf += 1;
                n += 4;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FStoreLoad => {
                locals[op.a as usize] = pop(stack)?;
                stack.push(locals[op.b as usize]);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FConstStore => {
                locals[op.a as usize] = Value::Int(op.imm);
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadConstArith => {
                // Load a.lo; ConstI imm; <arith a.hi> — Div/Rem fuse only
                // with a nonzero constant, so no raise path.
                let av = locals[(op.a & 0xFFFF) as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                stack.push(Value::Int(fused_arith(op.a >> 16, av, op.imm)));
                *pc += 3;
                n += 3;
                continue;
            }
            OpCode::FICmpIfNot => {
                // ICmp a; IfNot ->b
                let bv = pop_int(stack)?;
                let av = pop_int(stack)?;
                let ord = match av.cmp(&bv) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if !cmp_of(op.a).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 2;
                }
                *br_cnt += 1;
                cf += 1;
                n += 2;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FALoadArith => {
                // ALoad; <arith a> — a raise here happens at the first
                // constituent, so pc and n stay untouched (the outer raise
                // path charges the one unit, exactly like the single).
                let idx = pop_int(stack)?;
                let arr = pop(stack)?;
                let r = match arr {
                    Value::Ref(r) => r,
                    Value::Null => raise!(excode::NULL_POINTER),
                    v => return Err(type_err(format!("aload on non-reference {v}"))),
                };
                let v = match heap.get(r) {
                    Some(HeapEntry::Arr { elems }) => {
                        if idx < 0 || idx as usize >= elems.len() {
                            raise!(excode::ARRAY_BOUNDS);
                        }
                        elems[idx as usize]
                    }
                    Some(HeapEntry::Obj { .. }) => return Err(type_err("aload on object")),
                    None => return Err(VmError::DanglingRef { detail: format!("aload on {r}") }),
                };
                track!(Loc::Array(r), false);
                let ev = v.as_int().map_err(|v| type_err(format!("expected int, found {v}")))?;
                let av = pop_int(stack)?;
                stack.push(Value::Int(fused_arith(op.a, av, ev)));
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FArithStore => {
                // <arith b>; Store a
                let bv = pop_int(stack)?;
                let av = pop_int(stack)?;
                locals[op.a as usize] = Value::Int(fused_arith(op.b, av, bv));
                *pc += 2;
                n += 2;
                continue;
            }
            OpCode::FLoadLoadICmpIf => {
                // Load a.lo; Load a.hi; ICmp imm; If ->b — the second
                // load is the comparison's right-hand side.
                let bv = locals[(op.a >> 16) as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let av = locals[(op.a & 0xFFFF) as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let ord = match av.cmp(&bv) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if cmp_of(op.imm as u32).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 4;
                }
                *br_cnt += 1;
                cf += 1;
                n += 4;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::FLoadICmpIfNot => {
                // Load a.lo; ICmp a.hi; IfNot ->b — left-hand side from
                // the stack, right-hand side from the local.
                let bv = locals[(op.a & 0xFFFF) as usize]
                    .as_int()
                    .map_err(|v| type_err(format!("expected int, found {v}")))?;
                let av = pop_int(stack)?;
                let ord = match av.cmp(&bv) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                };
                if !cmp_of(op.a >> 16).eval_ord(ord) {
                    *pc = op.b;
                } else {
                    *pc += 3;
                }
                *br_cnt += 1;
                cf += 1;
                n += 3;
                if stop_br == Some(*br_cnt) {
                    break FastExit::Out;
                }
                continue;
            }
            OpCode::ConstStr
            | OpCode::New
            | OpCode::NewArray
            | OpCode::InvokeStatic
            | OpCode::InvokeVirtual
            | OpCode::InvokeNative
            | OpCode::Ret
            | OpCode::RetVal
            | OpCode::MonitorEnter
            | OpCode::MonitorExit
            | OpCode::Throw => break FastExit::Cold(op),
        }
        n += 1;
    };
    Ok((n, cf, exit))
}

// ----- native methods -----

fn begin_native(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    nid: crate::bytecode::NativeId,
    argc: u8,
) -> Result<(), VmError> {
    let reg_idx = core.linked[nid.0 as usize] as usize;
    let decl = &natives.decls()[reg_idx];
    let is_app = core.thread(t).kind == ThreadKind::App;
    // Streaming-replay gate. Must precede every counter bump and the
    // argument pop: a deferred thread re-executes this InvokeNative (the pc
    // only advances in `complete_native`), so the invocation must be
    // side-effect free up to this point.
    if is_app {
        let ready = {
            let obs = obs_of(&core.threads, t);
            coord.native_ready(&obs, decl)
        };
        if !ready {
            core.thread_mut(t).state = ThreadState::DeferredNative;
            return Ok(());
        }
    }
    // The invocation is a control-flow change; counted when the activation
    // is created.
    core.thread_mut(t).br_cnt += 1;
    if is_app {
        core.counters.branches += 1;
        core.counters.native_calls += 1;
    }
    let native_cost = core.cfg.cost.native_call;
    core.charge_base(native_cost);
    // Pop arguments (receiver-first order).
    let args: Vec<Value> = {
        let stack = &mut core.thread_mut(t).frame_mut().stack;
        let split = stack
            .len()
            .checked_sub(argc as usize)
            .ok_or_else(|| type_err("native call with too few operands"))?;
        stack.split_off(split)
    };
    let directive = if is_app {
        let (threads, acct) = (&core.threads, &mut core.acct);
        let obs = obs_of(threads, t);
        coord.pre_native(&obs, decl, &args, acct)
    } else {
        NativeDirective::Execute
    };
    let adopted: Option<AdoptedOutcome> = match directive {
        NativeDirective::Execute => None,
        NativeDirective::Replay(a) => Some(a),
    };
    let output_id = if decl.output {
        match &adopted {
            Some(a) => a.output_id,
            None => {
                if is_app {
                    core.counters.outputs += 1;
                    let (threads, acct) = (&core.threads, &mut core.acct);
                    let obs = obs_of(threads, t);
                    Some(coord.begin_output(&obs, decl, acct))
                } else {
                    Some(u64::MAX)
                }
            }
        }
    } else {
        None
    };
    core.thread_mut(t).native = Some(NativeActivation {
        native: nid,
        phase: 0,
        args,
        scratch: Vec::new(),
        held: Vec::new(),
        pending_acquire: None,
        adopted,
        output_id,
        out_args: Vec::new(),
    });
    Ok(())
}

/// What an intrinsic step produced.
enum IntrinsicStep {
    Done(Option<Value>),
    /// The thread yielded (blocked/sleeping/waiting); retry later.
    Pending,
    /// Raise a runtime exception with this code.
    Raise(i64),
}

fn drive_native(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
) -> Result<(), VmError> {
    let mut act = core
        .thread_mut(t)
        .native
        .take()
        .ok_or_else(|| VmError::Internal("drive_native requires an activation".into()))?;
    let reg_idx = core.linked[act.native.0 as usize] as usize;
    // Replay-with-skip: impose the logged outcome without running the body.
    if let Some(a) = &act.adopted {
        if !a.execute {
            let Some(imposed) = imposed_result(a) else {
                return Err(VmError::ReplayDivergence {
                    thread: t,
                    detail: "replay skipped a native without a logged result to impose".into(),
                });
            };
            return complete_native(core, natives, coord, t, act, imposed);
        }
    }
    // A pending in-native monitor acquisition must finish first.
    if let Some(obj) = act.pending_acquire {
        match core.acquire_monitor(coord, t, obj, None) {
            AcquireOutcome::Acquired => {
                act.held.push(obj);
                act.pending_acquire = None;
                core.thread_mut(t).native = Some(act);
            }
            AcquireOutcome::Blocked | AcquireOutcome::Deferred => {
                core.thread_mut(t).native = Some(act);
            }
        }
        return Ok(());
    }
    // Extract only the (Copy) body for this step — cloning a phased
    // native's whole phase vector per unit would be wasteful.
    enum Body {
        Intr(Intrinsic),
        Simple(crate::native::SimpleFn),
        Phase(crate::native::PhaseFn),
    }
    let body = match &natives.decls()[reg_idx].kind {
        NativeKind::Intrinsic(w) => Body::Intr(*w),
        NativeKind::Simple(f) => Body::Simple(*f),
        NativeKind::Phased(ps) => match ps.get(act.phase) {
            Some(f) => Body::Phase(*f),
            None => return Err(VmError::Internal("phased native ran past its last phase".into())),
        },
    };
    match body {
        Body::Intr(which) => {
            let step = drive_intrinsic(core, coord, t, &mut act, which)?;
            match step {
                IntrinsicStep::Done(v) => complete_native(core, natives, coord, t, act, Ok(v)),
                IntrinsicStep::Pending => {
                    core.thread_mut(t).native = Some(act);
                    Ok(())
                }
                IntrinsicStep::Raise(code) => {
                    release_held(core, coord, t, &mut act)?;
                    core.thread_mut(t).native = None;
                    raise_runtime(core, coord, t, code)
                }
            }
        }
        Body::Simple(f) => {
            let result = run_native_fn(core, &mut act, |ctx| f(ctx).map(PhaseOutcome::Done));
            match result {
                Ok(PhaseOutcome::Done(v)) => complete_native(core, natives, coord, t, act, Ok(v)),
                Ok(_) => Err(VmError::Internal("simple native returned a phase outcome".into())),
                Err(abort) => complete_native(core, natives, coord, t, act, Err(abort)),
            }
        }
        Body::Phase(f) => {
            let result = run_native_fn(core, &mut act, f);
            match result {
                Ok(PhaseOutcome::Done(v)) => complete_native(core, natives, coord, t, act, Ok(v)),
                Ok(PhaseOutcome::Continue) => {
                    act.phase += 1;
                    core.thread_mut(t).native = Some(act);
                    Ok(())
                }
                Ok(PhaseOutcome::AcquireMonitor(obj)) => {
                    act.phase += 1;
                    act.pending_acquire = Some(obj);
                    core.thread_mut(t).native = Some(act);
                    Ok(())
                }
                Ok(PhaseOutcome::ReleaseMonitor(obj)) => {
                    act.phase += 1;
                    act.held.retain(|o| *o != obj);
                    match core.release_monitor(coord, t, obj) {
                        Ok(()) => {
                            core.thread_mut(t).native = Some(act);
                            Ok(())
                        }
                        Err(_) => {
                            release_held(core, coord, t, &mut act)?;
                            core.thread_mut(t).native = None;
                            raise_runtime(core, coord, t, excode::ILLEGAL_MONITOR)
                        }
                    }
                }
                Err(abort) => complete_native(core, natives, coord, t, act, Err(abort)),
            }
        }
    }
}

fn run_native_fn<F>(
    core: &mut VmCore,
    act: &mut NativeActivation,
    f: F,
) -> Result<PhaseOutcome, NativeAbort>
where
    F: FnOnce(&mut NativeCtx<'_>) -> Result<PhaseOutcome, NativeAbort>,
{
    let now = core.acct.now();
    let mut ctx = NativeCtx {
        heap: &mut core.heap,
        env: &mut core.env,
        now,
        args: &act.args,
        scratch: &mut act.scratch,
        output_id: act.output_id,
        adopted: act.adopted.as_ref(),
        out_args: &mut act.out_args,
    };
    f(&mut ctx)
}

fn imposed_result(a: &AdoptedOutcome) -> Option<Result<Option<Value>, NativeAbort>> {
    match &a.result {
        Some(Ok(v)) => Some(Ok(*v)),
        Some(Err((code, msg))) => Some(Err(NativeAbort::new(*code, msg.clone()))),
        None => None,
    }
}

fn release_held(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    act: &mut NativeActivation,
) -> Result<(), VmError> {
    for obj in std::mem::take(&mut act.held) {
        // Best-effort: a native that aborted mid-critical-section must not
        // leave the monitor locked forever.
        let _ = core.release_monitor(coord, t, obj);
    }
    Ok(())
}

fn complete_native(
    core: &mut VmCore,
    natives: &NativeRegistry,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    mut act: NativeActivation,
    real_result: Result<Option<Value>, NativeAbort>,
) -> Result<(), VmError> {
    let reg_idx = core.linked[act.native.0 as usize] as usize;
    let is_app = core.thread(t).kind == ThreadKind::App;
    // Adopted outcomes override whatever the body produced (§4.1: "the
    // backup discards the generated return values and exceptions"). An
    // adopted outcome without a logged result (an uncertain output being
    // re-performed) keeps the body's own result.
    let (result, out_args) = match act.adopted.take() {
        Some(a) => {
            // Impose logged out-argument contents.
            for (idx, contents) in &a.out_args {
                let Some(Value::Ref(r)) = act.args.get(*idx as usize) else {
                    return Err(VmError::ReplayDivergence {
                        thread: t,
                        detail: format!("logged out-arg {idx} is not an array argument"),
                    });
                };
                match core.heap.get_mut(*r) {
                    Some(HeapEntry::Arr { elems }) => {
                        for (slot, v) in elems.iter_mut().zip(contents.iter()) {
                            *slot = *v;
                        }
                    }
                    _ => {
                        return Err(VmError::ReplayDivergence {
                            thread: t,
                            detail: format!("logged out-arg {idx} does not reference a live array"),
                        })
                    }
                }
            }
            let result = imposed_result(&a).unwrap_or(real_result);
            let out_args = if a.out_args.is_empty() {
                std::mem::take(&mut act.out_args)
            } else {
                a.out_args.clone()
            };
            (result, out_args)
        }
        None => (real_result, std::mem::take(&mut act.out_args)),
    };
    if result.is_err() {
        release_held(core, coord, t, &mut act)?;
    } else {
        debug_assert!(act.held.is_empty(), "native completed while holding monitors");
    }
    let outcome = NativeOutcome { result: result.clone(), out_args };
    if is_app {
        let decl = &natives.decls()[reg_idx];
        let (threads, env, acct) = (&core.threads, &core.env, &mut core.acct);
        let obs = obs_of(threads, t);
        coord.post_native(&obs, decl, &outcome, act.output_id, env, acct);
    }
    core.thread_mut(t).native = None;
    match result {
        Ok(v) => {
            let returns = natives.decls()[reg_idx].returns;
            let frame = core.thread_mut(t).frame_mut();
            if returns {
                frame.stack.push(v.ok_or_else(|| {
                    VmError::Internal("value-returning native produced no value".into())
                })?);
            }
            frame.pc += 1;
            Ok(())
        }
        Err(abort) => raise_runtime(core, coord, t, excode::NATIVE_BASE + abort.code),
    }
}

fn drive_intrinsic(
    core: &mut VmCore,
    coord: &mut dyn Coordinator,
    t: ThreadIdx,
    act: &mut NativeActivation,
    which: Intrinsic,
) -> Result<IntrinsicStep, VmError> {
    match which {
        Intrinsic::Spawn => {
            let Some(Value::Int(mid)) = act.args.first().copied() else {
                return Ok(IntrinsicStep::Raise(excode::NATIVE_BASE + 90));
            };
            if mid < 0 || mid as usize >= core.program.methods.len() {
                return Ok(IntrinsicStep::Raise(excode::NATIVE_BASE + 93));
            }
            let arg = act.args.get(1).copied().unwrap_or(Value::Null);
            if !core.thread(t).is_app() {
                return Ok(IntrinsicStep::Raise(excode::NATIVE_BASE + 94));
            }
            core.spawn_app_thread(coord, t, crate::bytecode::MethodId(mid as u32), arg)?;
            Ok(IntrinsicStep::Done(None))
        }
        Intrinsic::Wait => {
            let Some(Value::Ref(obj)) = act.args.first().copied() else {
                return Ok(IntrinsicStep::Raise(excode::NULL_POINTER));
            };
            match core.thread(t).wait_resume {
                None => {
                    let saved = match core.monitors.monitor_mut(obj).release_all(t) {
                        Ok(depth) => depth,
                        Err(_) => return Ok(IntrinsicStep::Raise(excode::ILLEGAL_MONITOR)),
                    };
                    core.thread_mut(t).mon_cnt += 1;
                    if core.thread(t).is_app() {
                        core.counters.monitor_ops += 1;
                        if core.race.is_some() {
                            core.thread_mut(t).held_for_race.retain(|o| *o != obj);
                        }
                    }
                    let cost = core.cfg.cost.monitor_op;
                    core.charge_base(cost);
                    core.monitors
                        .monitor_mut(obj)
                        .wait_set
                        .push_back(crate::monitor::Waiter { thread: t, saved_recursion: saved });
                    core.thread_mut(t).wait_resume = Some(WaitResume { saved_recursion: saved });
                    core.thread_mut(t).state = ThreadState::WaitingMonitor { obj };
                    core.wake_blocked_on(obj);
                    core.poll_deferred(coord);
                    Ok(IntrinsicStep::Pending)
                }
                Some(resume) => {
                    match core.acquire_monitor(coord, t, obj, Some(resume.saved_recursion)) {
                        AcquireOutcome::Acquired => {
                            core.thread_mut(t).wait_resume = None;
                            Ok(IntrinsicStep::Done(None))
                        }
                        AcquireOutcome::Blocked | AcquireOutcome::Deferred => {
                            Ok(IntrinsicStep::Pending)
                        }
                    }
                }
            }
        }
        Intrinsic::Notify | Intrinsic::NotifyAll => {
            let Some(Value::Ref(obj)) = act.args.first().copied() else {
                return Ok(IntrinsicStep::Raise(excode::NULL_POINTER));
            };
            let m = core.monitors.monitor_mut(obj);
            if !m.owned_by(t) {
                return Ok(IntrinsicStep::Raise(excode::ILLEGAL_MONITOR));
            }
            let woken: Vec<ThreadIdx> = {
                let ws = &mut m.wait_set;
                if which == Intrinsic::Notify {
                    ws.pop_front().map(|w| w.thread).into_iter().collect()
                } else {
                    ws.drain(..).map(|w| w.thread).collect()
                }
            };
            for w in woken {
                core.make_runnable(w);
            }
            Ok(IntrinsicStep::Done(None))
        }
        Intrinsic::Sleep => {
            if act.scratch.is_empty() {
                let Some(Value::Int(ms)) = act.args.first().copied() else {
                    return Ok(IntrinsicStep::Raise(excode::NATIVE_BASE + 90));
                };
                let until = core.acct.now() + SimTime::from_millis(ms.max(0) as u64);
                act.scratch.push(Value::Int(until.as_nanos() as i64));
                core.thread_mut(t).state = ThreadState::Sleeping { until };
                Ok(IntrinsicStep::Pending)
            } else {
                Ok(IntrinsicStep::Done(None))
            }
        }
        Intrinsic::Yield => {
            core.yield_requested = true;
            Ok(IntrinsicStep::Done(None))
        }
        Intrinsic::Gc => {
            let heap_lock = core.heap_lock;
            if core.internal_try_lock(heap_lock, t) {
                core.run_gc();
                core.internal_unlock(heap_lock);
                Ok(IntrinsicStep::Done(None))
            } else {
                // Blocked on the heap lock; retried when the GC releases.
                Ok(IntrinsicStep::Pending)
            }
        }
    }
}
