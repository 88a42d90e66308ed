//! Pre-decoded, flat instruction form for the block executor.
//!
//! [`DecodedProgram::build`] translates every method's `Vec<Insn>` into a
//! dense stream of fixed-width [`DOp`]s once, at VM construction: operand
//! indices are widened into flat `u32` fields, branch targets stay
//! pre-resolved instruction indices, and per-callee facts that would
//! otherwise need a method-table lookup at execution time (is the static
//! callee synchronized?) are folded into flag bits. Primary and backup
//! decode the same program, so the decoded stream is identical on both
//! replicas and the paper's `(br_cnt, pc_off)` progress points address it
//! directly — a decoded pc is the same instruction index as a bytecode pc.
//!
//! The flags also pre-classify each op for the segment executor
//! ([`crate::exec::Vm::run_slice`]'s hot path): *breaker* ops (monitor
//! operations, native invocations, throws, synchronized static calls) must
//! run through the legacy one-unit path with their own coordinator
//! consult, everything else can execute inside a straight-line segment.

use crate::bytecode::{Cmp, Insn};
use crate::class::Program;

/// Dense operation code, one per [`Insn`] variant, plus the fused
/// superinstructions (`F*`) that exist only in the fused stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub(crate) enum OpCode {
    Nop,
    ConstI,
    ConstD,
    ConstNull,
    ConstStr,
    Dup,
    DupX1,
    Pop,
    Swap,
    Load,
    Store,
    Inc,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    DAdd,
    DSub,
    DMul,
    DDiv,
    I2D,
    D2I,
    ICmp,
    DCmp,
    RefEq,
    Goto,
    If,
    IfNot,
    IfNull,
    InvokeStatic,
    InvokeVirtual,
    InvokeNative,
    Ret,
    RetVal,
    New,
    GetField,
    PutField,
    GetStatic,
    PutStatic,
    ClassObj,
    NewArray,
    ALoad,
    AStore,
    ALen,
    MonitorEnter,
    MonitorExit,
    Throw,
    // ----- fused superinstructions (fused stream only) -----
    // Each `F*` op is the exact composition of its constituent singles:
    // it executes only when the whole composition fits the remaining
    // segment budget (otherwise the executor falls back to the quickened
    // single at the same pc), consumes one unit and one potential
    // control-flow bump *per constituent*, and on a mid-op raise leaves
    // the pc at the raising constituent — so segment accounting, the
    // backup's intra-block unit budgets, and every recorded
    // `(br_cnt, pc_off)` are bit-identical with fusion on or off.
    /// `Load a; IfNot b` — countdown-loop head (`helpers::spin`).
    FLoadIfNot,
    /// `Inc a, imm; Goto b` — loop back-edge.
    FIncGoto,
    /// `ICmp a; If b` — compare-and-branch tail.
    FICmpIf,
    /// `ConstI imm; <arith a>` — constant-operand arithmetic. `Div`/`Rem`
    /// fuse only when `imm != 0`, so the fused form never raises.
    FConstArith,
    /// `Load a; Load b` — two pushes.
    FLoadLoad,
    /// `Load a; Store b` — local-to-local copy.
    FLoadStore,
    /// `Load a; ALoad` — indexed array read (index from a local).
    FLoadALoad,
    /// `Load a; GetField b` — field read through a local reference.
    FLoadGetField,
    /// `GetStatic a, b; Load imm` — static read then local push.
    FGetStaticLoad,
    /// `Load a; ConstI imm; ICmp b` — local-vs-constant comparison
    /// (`helpers::count_loop` head).
    FLoadConstICmp,
    /// `ConstI imm; ICmp a; If b` — constant compare-and-branch.
    FConstICmpIf,
    /// `Load a; Load b; ALoad` — array read with both operands local.
    FLoadLoadALoad,
    /// `Load a; Load b; <arith imm>` — two-local arithmetic (`Div`/`Rem`
    /// excluded: their raise path would need mid-op unwinding).
    FLoadLoadArith,
    /// `Load a.lo; IfNot ->b; Inc a.hi,imm.lo; Goto ->imm.hi` — one whole
    /// `spin`-style wait-loop iteration. Both constituent branches bump
    /// `br_cnt` with their own stop checks, so a backup replay bound can
    /// still halt between them (pc then rests on the interior `Inc`
    /// single).
    FSpin,
    /// `Load a.lo; ConstI imm; ICmp a.hi; If ->b` — a full counted-loop
    /// head test-and-branch.
    FLoadConstICmpIf,
    /// `Store a; Load b` — local store followed by a (possibly same-slot)
    /// local reload.
    FStoreLoad,
    /// `ConstI imm; Store a` — constant into a local, no stack traffic.
    FConstStore,
    /// `Load a.lo; ConstI imm; <arith a.hi>` — local-vs-constant
    /// arithmetic (`Div`/`Rem` fuse only with a nonzero constant).
    FLoadConstArith,
    /// `ICmp a; IfNot ->b` — compare-and-branch on the negation.
    FICmpIfNot,
    /// `ALoad; <arith a>` — array element folded into arithmetic.
    FALoadArith,
    /// `<arith b>; Store a` — arithmetic result straight into a local.
    FArithStore,
    /// `Load a.lo; Load a.hi; ICmp imm; If ->b` — two-local
    /// compare-and-branch (the jack scanner head).
    FLoadLoadICmpIf,
    /// `Load a.lo; ICmp a.hi; IfNot ->b` — local-vs-stack
    /// compare-and-branch on the negation.
    FLoadICmpIfNot,
}

/// The op must execute through the legacy one-unit path (it coordinates
/// with monitors, natives, or exception control flow).
pub(crate) const F_BREAKER: u8 = 1 << 0;
/// `InvokeStatic` whose callee is a synchronized method (implies
/// [`F_BREAKER`]); precomputed so the segment executor never touches the
/// method table for the common non-synchronized call.
pub(crate) const F_SYNC_CALLEE: u8 = 1 << 1;
/// Upper flag bits hold a fused op's constituent count (2–4), so the
/// fast loop's existing single `flags != 0` test also routes fused ops:
/// `flags >> F_FUSE_SHIFT` is 0 for every non-fused op.
pub(crate) const F_FUSE_SHIFT: u8 = 4;

/// `InvokeVirtual.imm` value meaning "no inline-cache site": what
/// [`decode_one`] emits, so the `Match` engine never touches the caches;
/// quickening assigns real site ids ≥ 0 in the decoded streams.
pub(crate) const NO_IC: i64 = -1;

/// One monomorphic inline-cache entry: the receiver class last seen at an
/// `InvokeVirtual` site, with the resolved callee facts the invoke
/// prologue needs (saving the vtable walk and two method-table reads).
/// Never stale — classes and vtables are immutable after program build —
/// and purely host-side: replicas warm their caches independently and a
/// snapshot restore starts cold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IcEntry {
    /// Cached receiver class (`None` = cold site).
    pub class: Option<crate::bytecode::ClassId>,
    /// Resolved callee for that class.
    pub target: crate::bytecode::MethodId,
    /// Callee is synchronized (must take the legacy breaker path).
    pub sync: bool,
    /// Callee argument count.
    pub n_args: u8,
    /// Callee frame size.
    pub n_locals: u16,
}

impl Default for IcEntry {
    fn default() -> Self {
        IcEntry {
            class: None,
            target: crate::bytecode::MethodId(0),
            sync: false,
            n_args: 0,
            n_locals: 0,
        }
    }
}

/// One decoded instruction: fixed-width, `Copy`, no heap indirection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DOp {
    /// Operation.
    pub code: OpCode,
    /// Classification flags ([`F_BREAKER`], [`F_SYNC_CALLEE`]).
    pub flags: u8,
    /// First operand: local index, branch target, slot, class id, method
    /// id, vslot, string id, native id, or comparison code.
    pub a: u32,
    /// Second operand: argument count or static slot.
    pub b: u32,
    /// Immediate: integer constant, increment delta, or `f64` bits.
    pub imm: i64,
}

impl DOp {
    /// True if this op must run through the legacy one-unit path.
    #[inline]
    pub fn is_breaker(self) -> bool {
        self.flags & F_BREAKER != 0
    }
}

/// Encodes a [`Cmp`] into a `u32` operand.
fn cmp_code(c: Cmp) -> u32 {
    match c {
        Cmp::Eq => 0,
        Cmp::Ne => 1,
        Cmp::Lt => 2,
        Cmp::Le => 3,
        Cmp::Gt => 4,
        Cmp::Ge => 5,
    }
}

/// Decodes a [`Cmp`] operand written by [`cmp_code`].
#[inline]
pub(crate) fn cmp_of(a: u32) -> Cmp {
    match a {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        3 => Cmp::Le,
        4 => Cmp::Gt,
        _ => Cmp::Ge,
    }
}

/// Decodes one instruction. Also the per-op path of the `Match` dispatch
/// engine, which re-derives the flat form from the original `Insn` on
/// every fetch — deliberately paying the decode + match cost the
/// pre-decoded streams amortize away.
pub(crate) fn decode_one(insn: Insn, program: &Program) -> DOp {
    let op = |code| DOp { code, flags: 0, a: 0, b: 0, imm: 0 };
    match insn {
        Insn::Nop => op(OpCode::Nop),
        Insn::Const(v) => DOp { imm: v, ..op(OpCode::ConstI) },
        Insn::DConst(v) => DOp { imm: v.to_bits() as i64, ..op(OpCode::ConstD) },
        Insn::ConstNull => op(OpCode::ConstNull),
        Insn::ConstStr(sid) => DOp { a: sid.0, ..op(OpCode::ConstStr) },
        Insn::Dup => op(OpCode::Dup),
        Insn::DupX1 => op(OpCode::DupX1),
        Insn::Pop => op(OpCode::Pop),
        Insn::Swap => op(OpCode::Swap),
        Insn::Load(n) => DOp { a: n as u32, ..op(OpCode::Load) },
        Insn::Store(n) => DOp { a: n as u32, ..op(OpCode::Store) },
        Insn::Inc(n, delta) => DOp { a: n as u32, imm: delta as i64, ..op(OpCode::Inc) },
        Insn::Add => op(OpCode::Add),
        Insn::Sub => op(OpCode::Sub),
        Insn::Mul => op(OpCode::Mul),
        Insn::Div => op(OpCode::Div),
        Insn::Rem => op(OpCode::Rem),
        Insn::Neg => op(OpCode::Neg),
        Insn::And => op(OpCode::And),
        Insn::Or => op(OpCode::Or),
        Insn::Xor => op(OpCode::Xor),
        Insn::Shl => op(OpCode::Shl),
        Insn::Shr => op(OpCode::Shr),
        Insn::DAdd => op(OpCode::DAdd),
        Insn::DSub => op(OpCode::DSub),
        Insn::DMul => op(OpCode::DMul),
        Insn::DDiv => op(OpCode::DDiv),
        Insn::I2D => op(OpCode::I2D),
        Insn::D2I => op(OpCode::D2I),
        Insn::ICmp(c) => DOp { a: cmp_code(c), ..op(OpCode::ICmp) },
        Insn::DCmp(c) => DOp { a: cmp_code(c), ..op(OpCode::DCmp) },
        Insn::RefEq => op(OpCode::RefEq),
        Insn::Goto(target) => DOp { a: target, ..op(OpCode::Goto) },
        Insn::If(target) => DOp { a: target, ..op(OpCode::If) },
        Insn::IfNot(target) => DOp { a: target, ..op(OpCode::IfNot) },
        Insn::IfNull(target) => DOp { a: target, ..op(OpCode::IfNull) },
        Insn::InvokeStatic(mid) => {
            let sync = program.methods[mid.0 as usize].synchronized;
            DOp {
                flags: if sync { F_BREAKER | F_SYNC_CALLEE } else { 0 },
                a: mid.0,
                ..op(OpCode::InvokeStatic)
            }
        }
        Insn::InvokeVirtual(slot, argc) => {
            DOp { a: slot.0 as u32, b: argc as u32, imm: NO_IC, ..op(OpCode::InvokeVirtual) }
        }
        Insn::InvokeNative(nid, argc) => {
            DOp { flags: F_BREAKER, a: nid.0, b: argc as u32, ..op(OpCode::InvokeNative) }
        }
        Insn::Ret => op(OpCode::Ret),
        Insn::RetVal => op(OpCode::RetVal),
        Insn::New(cid) => DOp { a: cid.0 as u32, ..op(OpCode::New) },
        Insn::GetField(slot) => DOp { a: slot as u32, ..op(OpCode::GetField) },
        Insn::PutField(slot) => DOp { a: slot as u32, ..op(OpCode::PutField) },
        Insn::GetStatic(cid, slot) => {
            DOp { a: cid.0 as u32, b: slot as u32, ..op(OpCode::GetStatic) }
        }
        Insn::PutStatic(cid, slot) => {
            DOp { a: cid.0 as u32, b: slot as u32, ..op(OpCode::PutStatic) }
        }
        Insn::ClassObj(cid) => DOp { a: cid.0 as u32, ..op(OpCode::ClassObj) },
        Insn::NewArray => op(OpCode::NewArray),
        Insn::ALoad => op(OpCode::ALoad),
        Insn::AStore => op(OpCode::AStore),
        Insn::ALen => op(OpCode::ALen),
        Insn::MonitorEnter => DOp { flags: F_BREAKER, ..op(OpCode::MonitorEnter) },
        Insn::MonitorExit => DOp { flags: F_BREAKER, ..op(OpCode::MonitorExit) },
        Insn::Throw => DOp { flags: F_BREAKER, ..op(OpCode::Throw) },
    }
}

/// One method in decoded form: two parallel streams over the same pcs.
/// The unquickened form `Match` dispatches is not stored; it is
/// [`decode_one`] of the method's `Insn`s.
#[derive(Debug)]
pub(crate) struct DecodedMethod {
    /// Quickened singles: same ops with operands rewritten to direct
    /// facts (static-callee frame shape, inline-cache site ids). The
    /// `Fused` engine's fallback stream when a superinstruction does not
    /// fit the remaining segment budget, and the stream executed on any
    /// entry into the middle of a fused region (branch target, snapshot
    /// resume) — those slots are never overlaid.
    pub quick: Vec<DOp>,
    /// The dispatch stream of the `Fused` engine: `quick` with each
    /// fusion-site start slot overlaid by its superinstruction.
    /// Constituent slots keep their quickened singles.
    pub fused: Vec<DOp>,
}

/// The whole program in decoded form, indexed `[method][pc]`.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// Per-method decoded streams, parallel to `Program::methods`.
    pub methods: Vec<DecodedMethod>,
    /// Inline-cache site count (sites are numbered program-wide, in
    /// method-then-pc order, so both replicas agree on the numbering).
    pub n_ic_sites: u32,
    /// Pre-materialized `ConstStr` array contents, parallel to
    /// `Program::strings`: the decode-time form of the string pool, so
    /// the fused engine's allocation path copies values instead of
    /// re-walking UTF-8 per execution.
    pub strings: Vec<Vec<crate::value::Value>>,
}

/// True if `op` may be a fusion constituent: a quiet fast-loop op. Cold
/// ops (allocations, invocations, returns) and breakers (flags != 0)
/// never fuse — fusion must not swallow a potential preemption point or
/// an op that needs `&mut VmCore`.
fn fusible(op: &DOp) -> bool {
    op.flags == 0
        && !matches!(
            op.code,
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
                | OpCode::Throw
        )
}

/// Integer arithmetic whose fused form can never raise.
fn quiet_arith(code: OpCode) -> bool {
    matches!(
        code,
        OpCode::Add
            | OpCode::Sub
            | OpCode::Mul
            | OpCode::And
            | OpCode::Or
            | OpCode::Xor
            | OpCode::Shl
            | OpCode::Shr
    )
}

/// Evaluates the arithmetic constituent of a fused op. `sub` is the
/// constituent's [`OpCode`] discriminant (as stored by [`fuse_window`]).
/// `Div`/`Rem` appear only via `FConstArith` with a nonzero constant, so
/// no raise path exists here.
pub(crate) fn fused_arith(sub: u32, a: i64, b: i64) -> i64 {
    const ADD: u32 = OpCode::Add as u32;
    const SUB: u32 = OpCode::Sub as u32;
    const MUL: u32 = OpCode::Mul as u32;
    const AND: u32 = OpCode::And as u32;
    const OR: u32 = OpCode::Or as u32;
    const XOR: u32 = OpCode::Xor as u32;
    const SHL: u32 = OpCode::Shl as u32;
    const SHR: u32 = OpCode::Shr as u32;
    const DIV: u32 = OpCode::Div as u32;
    match sub {
        ADD => a.wrapping_add(b),
        SUB => a.wrapping_sub(b),
        MUL => a.wrapping_mul(b),
        AND => a & b,
        OR => a | b,
        XOR => a ^ b,
        SHL => a.wrapping_shl(b as u32 & 63),
        SHR => a.wrapping_shr(b as u32 & 63),
        DIV => a.wrapping_div(b),
        _ => a.wrapping_rem(b),
    }
}

/// Builds the fused superinstruction for the window starting at `w[0]`,
/// if the window matches a table pattern. Returns the fused op (its
/// constituent count is encoded in the flags).
///
/// The pattern table was chosen from measured frequencies: the
/// `--profile-ops` mode of the interp bench bin ranks executed singles
/// and statically contiguous digrams/trigrams across the six SPEC
/// analogs (see DESIGN.md §8.6 for the recorded counts). Longest match
/// wins: quadgrams are tried before trigrams before digrams at each site.
///
/// `targets[j]` marks `w[j]` as a branch or handler target. A fused op
/// must not cover a target as an *interior* constituent (start slot is
/// fine): execution entering mid-region runs unfused singles, so fusing
/// across a loop head would demote the hottest path in the method —
/// exactly what happened to `helpers::spin` when a preceding `Store+Load`
/// digram swallowed the loop-head `Load`.
fn fuse_window(w: &[DOp], targets: &[bool]) -> Option<DOp> {
    let fused = |code, len: u8, a: u32, b: u32, imm: i64| {
        Some(DOp { code, flags: len << F_FUSE_SHIFT, a, b, imm })
    };
    let clear = |len: usize| targets[1..len].iter().all(|t| !t);
    // Quadgrams first (longest match). Operand packing needs the locals
    // in 16 bits (always true: they come from `VSlot(u16)`) and, for
    // `FSpin`, the increment delta in 32.
    if w.len() >= 4 && w[..4].iter().all(fusible) && clear(4) {
        match (w[0].code, w[1].code, w[2].code, w[3].code) {
            (OpCode::Load, OpCode::IfNot, OpCode::Inc, OpCode::Goto)
                if i32::try_from(w[2].imm).is_ok() =>
            {
                let imm = (i64::from(w[3].a) << 32) | i64::from(w[2].imm as i32 as u32);
                return fused(OpCode::FSpin, 4, w[0].a | (w[2].a << 16), w[1].a, imm);
            }
            (OpCode::Load, OpCode::ConstI, OpCode::ICmp, OpCode::If) => {
                return fused(
                    OpCode::FLoadConstICmpIf,
                    4,
                    w[0].a | (w[2].a << 16),
                    w[3].a,
                    w[1].imm,
                );
            }
            (OpCode::Load, OpCode::Load, OpCode::ICmp, OpCode::If) => {
                return fused(
                    OpCode::FLoadLoadICmpIf,
                    4,
                    w[0].a | (w[1].a << 16),
                    w[3].a,
                    i64::from(w[2].a),
                );
            }
            _ => {}
        }
    }
    // Trigrams next.
    if w.len() >= 3 && w[..3].iter().all(fusible) && clear(3) {
        match (w[0].code, w[1].code, w[2].code) {
            (OpCode::Load, OpCode::ConstI, OpCode::ICmp) => {
                return fused(OpCode::FLoadConstICmp, 3, w[0].a, w[2].a, w[1].imm);
            }
            (OpCode::ConstI, OpCode::ICmp, OpCode::If) => {
                return fused(OpCode::FConstICmpIf, 3, w[1].a, w[2].a, w[0].imm);
            }
            (OpCode::Load, OpCode::Load, OpCode::ALoad) => {
                return fused(OpCode::FLoadLoadALoad, 3, w[0].a, w[1].a, 0);
            }
            (OpCode::Load, OpCode::Load, arith) if quiet_arith(arith) => {
                return fused(OpCode::FLoadLoadArith, 3, w[0].a, w[1].a, arith as u8 as i64);
            }
            (OpCode::Load, OpCode::ConstI, arith) if quiet_arith(arith) => {
                let sub = arith as u8 as u32;
                return fused(OpCode::FLoadConstArith, 3, w[0].a | (sub << 16), 0, w[1].imm);
            }
            (OpCode::Load, OpCode::ConstI, OpCode::Div | OpCode::Rem) if w[1].imm != 0 => {
                let sub = w[2].code as u8 as u32;
                return fused(OpCode::FLoadConstArith, 3, w[0].a | (sub << 16), 0, w[1].imm);
            }
            (OpCode::Load, OpCode::ICmp, OpCode::IfNot) => {
                return fused(OpCode::FLoadICmpIfNot, 3, w[0].a | (w[1].a << 16), w[2].a, 0);
            }
            _ => {}
        }
    }
    if w.len() >= 2 && w[..2].iter().all(fusible) && clear(2) {
        match (w[0].code, w[1].code) {
            (OpCode::Load, OpCode::IfNot) => {
                return fused(OpCode::FLoadIfNot, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::Inc, OpCode::Goto) => {
                return fused(OpCode::FIncGoto, 2, w[0].a, w[1].a, w[0].imm);
            }
            (OpCode::ICmp, OpCode::If) => {
                return fused(OpCode::FICmpIf, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::ICmp, OpCode::IfNot) => {
                return fused(OpCode::FICmpIfNot, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::ALoad, arith) if quiet_arith(arith) => {
                return fused(OpCode::FALoadArith, 2, arith as u8 as u32, 0, 0);
            }
            (arith, OpCode::Store) if quiet_arith(arith) => {
                return fused(OpCode::FArithStore, 2, w[1].a, arith as u8 as u32, 0);
            }
            (OpCode::ConstI, arith) if quiet_arith(arith) => {
                return fused(OpCode::FConstArith, 2, arith as u8 as u32, 0, w[0].imm);
            }
            // Constant divisor/modulus: fusible exactly when nonzero —
            // the division-by-zero raise is decided at decode time
            // (quickening), so the fused op stays raise-free.
            (OpCode::ConstI, OpCode::Div | OpCode::Rem) if w[0].imm != 0 => {
                return fused(OpCode::FConstArith, 2, w[1].code as u8 as u32, 0, w[0].imm);
            }
            (OpCode::Load, OpCode::ALoad) => {
                return fused(OpCode::FLoadALoad, 2, w[0].a, 0, 0);
            }
            (OpCode::Load, OpCode::GetField) => {
                return fused(OpCode::FLoadGetField, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::GetStatic, OpCode::Load) => {
                return fused(OpCode::FGetStaticLoad, 2, w[0].a, w[0].b, w[1].a as i64);
            }
            (OpCode::Load, OpCode::Store) => {
                return fused(OpCode::FLoadStore, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::Load, OpCode::Load) => {
                return fused(OpCode::FLoadLoad, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::Store, OpCode::Load) => {
                return fused(OpCode::FStoreLoad, 2, w[0].a, w[1].a, 0);
            }
            (OpCode::ConstI, OpCode::Store) => {
                return fused(OpCode::FConstStore, 2, w[1].a, 0, w[0].imm);
            }
            _ => {}
        }
    }
    None
}

impl DecodedProgram {
    /// Decodes every method of `program` into the two streams.
    /// Deterministic: both replicas build identical streams (and identical
    /// inline-cache site numbering) from the identical program.
    pub fn build(program: &Program) -> Self {
        let mut n_ic_sites = 0u32;
        let methods = program
            .methods
            .iter()
            .map(|m| {
                // Quickening: decode, then rewrite operands to decode-time
                // facts.
                let quick: Vec<DOp> = m
                    .code
                    .iter()
                    .map(|i| {
                        let mut q = decode_one(*i, program);
                        match q.code {
                            // Non-synchronized static call: fold the
                            // callee's frame shape in, so the invoke path
                            // skips the method-table read.
                            OpCode::InvokeStatic if q.flags == 0 => {
                                let callee = &program.methods[q.a as usize];
                                q.b = u32::from(callee.n_args);
                                q.imm = i64::from(callee.n_locals);
                            }
                            // Virtual call: allocate an inline-cache site.
                            OpCode::InvokeVirtual => {
                                q.imm = i64::from(n_ic_sites);
                                n_ic_sites += 1;
                            }
                            _ => {}
                        }
                        q
                    })
                    .collect();
                // Branch/handler targets: fused ops may start at one but
                // never cover one as an interior constituent.
                let mut is_target = vec![false; quick.len()];
                for op in &quick {
                    if matches!(op.code, OpCode::Goto | OpCode::If | OpCode::IfNot | OpCode::IfNull)
                    {
                        if let Some(t) = is_target.get_mut(op.a as usize) {
                            *t = true;
                        }
                    }
                }
                for h in &m.handlers {
                    if let Some(t) = is_target.get_mut(h.target as usize) {
                        *t = true;
                    }
                }
                // Fusion: greedy longest-match scan; overlay only the
                // start slot, so every interior pc still holds its
                // quickened single (branch targets and snapshot resumes
                // into the middle of a fused region need no special case).
                let mut fused = quick.clone();
                let mut i = 0;
                while i < quick.len() {
                    match fuse_window(&quick[i..], &is_target[i..]) {
                        Some(op) => {
                            let len = (op.flags >> F_FUSE_SHIFT) as usize;
                            fused[i] = op;
                            i += len;
                        }
                        None => i += 1,
                    }
                }
                DecodedMethod { quick, fused }
            })
            .collect();
        let strings = program
            .strings
            .iter()
            .map(|s| s.bytes().map(|b| crate::value::Value::Int(i64::from(b))).collect())
            .collect();
        DecodedProgram { methods, n_ic_sites, strings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn decode_resolves_operands_and_flags() {
        let mut b = ProgramBuilder::new();
        let print = b.import_native("sys.print_int", 1, false);
        let mut helper = b.method("helper", 1);
        helper.load(0).ret_val();
        let helper_id = helper.build(&mut b);
        let mut m = b.method("main", 1);
        m.push_i(41).push_i(1).add().invoke(helper_id).invoke_native(print, 1).ret_void();
        let entry = m.build(&mut b);
        let program = b.build(entry).unwrap();

        let d = DecodedProgram::build(&program);
        assert_eq!(d.methods.len(), program.methods.len());
        assert_eq!(d.methods[entry.0 as usize].quick.len(), program.method(entry).code.len());
        // The unquickened form `Match` dispatches.
        let main_ops: Vec<DOp> =
            program.method(entry).code.iter().map(|i| decode_one(*i, &program)).collect();
        assert_eq!(main_ops[0].code, OpCode::ConstI);
        assert_eq!(main_ops[0].imm, 41);
        assert_eq!(main_ops[2].code, OpCode::Add);
        let call = main_ops[3];
        assert_eq!(call.code, OpCode::InvokeStatic);
        assert_eq!(call.a, helper_id.0);
        assert!(!call.is_breaker(), "plain static call runs in-segment");
        assert!(main_ops[4].is_breaker(), "native invocation breaks segments");
    }

    #[test]
    fn synchronized_callee_is_flagged_as_breaker() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", crate::class::builtin::OBJECT, 0, 0);
        let mut locked = b.method("locked", 1);
        locked.static_of(cls).synchronized();
        locked.ret_void();
        let locked_id = locked.build(&mut b);
        let mut m = b.method("main", 1);
        m.push_i(0).invoke(locked_id).ret_void();
        let entry = m.build(&mut b);
        let program = b.build(entry).unwrap();

        let call = decode_one(program.method(entry).code[1], &program);
        assert_eq!(call.code, OpCode::InvokeStatic);
        assert!(call.flags & F_SYNC_CALLEE != 0);
        assert!(call.is_breaker());
    }

    #[test]
    fn cmp_codes_round_trip() {
        for c in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(cmp_of(cmp_code(c)), c);
        }
    }

    /// Builds `main` with a `helpers::spin`-shaped countdown loop.
    fn spin_program() -> (crate::class::Program, crate::bytecode::MethodId) {
        let mut b = ProgramBuilder::new();
        let mut m = b.method("main", 1);
        let done = m.new_label();
        m.push_i(5).store(1);
        let top = m.bind_new_label();
        m.load(1).if_not(done);
        m.inc(1, -1).goto(top);
        m.bind(done);
        m.ret_void();
        let entry = m.build(&mut b);
        (b.build(entry).unwrap(), entry)
    }

    #[test]
    fn spin_loop_fuses_whole_and_keeps_interior_singles() {
        let (p, entry) = spin_program();
        let dm = &DecodedProgram::build(&p).methods[entry.0 as usize];
        // pc 0-1: `const 5; store 1` digram; pc 2-5: the whole spin body.
        let prologue = dm.fused[0];
        assert_eq!(prologue.code, OpCode::FConstStore);
        assert_eq!(prologue.flags >> F_FUSE_SHIFT, 2);
        let spin = dm.fused[2];
        assert_eq!(spin.code, OpCode::FSpin);
        assert_eq!(spin.flags >> F_FUSE_SHIFT, 4);
        assert_eq!(spin.a & 0xFFFF, 1, "test local");
        assert_eq!(spin.a >> 16, 1, "counter local");
        assert_eq!(spin.b, 6, "exit target");
        assert_eq!(spin.imm >> 32, 2, "back-edge target");
        assert_eq!(spin.imm as i32, -1, "increment delta");
        // Interior slots keep their quickened singles so branch targets,
        // budget fallbacks and snapshot resumes work without rewriting.
        for (pc, code) in [(3, OpCode::IfNot), (4, OpCode::Inc), (5, OpCode::Goto)] {
            assert_eq!(dm.fused[pc].code, code, "interior pc {pc}");
            assert_eq!(dm.fused[pc].flags >> F_FUSE_SHIFT, 0);
        }
        // The fallback stream holds singles only.
        for (pc, op) in dm.quick.iter().enumerate() {
            assert_eq!(op.flags >> F_FUSE_SHIFT, 0, "quick pc {pc} must not fuse");
        }
    }

    #[test]
    fn fusion_never_covers_a_branch_target_interior() {
        let (p, entry) = spin_program();
        let dm = &DecodedProgram::build(&p).methods[entry.0 as usize];
        // pc 2 (the loop head `load`) is the back-edge target: the
        // `store 1; load 1` digram at pc 1 must NOT fuse across it, or
        // every loop iteration would enter mid-region and run singles.
        assert_eq!(dm.fused[1].code, OpCode::Store);
        assert_eq!(dm.fused[2].code, OpCode::FSpin, "loop head keeps its fusion");
        // Every fused op in every method respects the rule globally.
        for dm in &DecodedProgram::build(&p).methods {
            let mut targets = vec![false; dm.quick.len()];
            for op in &dm.quick {
                if matches!(op.code, OpCode::Goto | OpCode::If | OpCode::IfNot | OpCode::IfNull) {
                    targets[op.a as usize] = true;
                }
            }
            for (pc, op) in dm.fused.iter().enumerate() {
                let len = (op.flags >> F_FUSE_SHIFT) as usize;
                for t in targets.iter().enumerate().take(pc + len.max(1)).skip(pc + 1) {
                    assert!(!t.1, "fused op at {pc} covers branch target {}", t.0);
                }
            }
        }
    }

    #[test]
    fn quickening_folds_callee_shape_and_numbers_ic_sites() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", crate::class::builtin::OBJECT, 0, 0);
        let slot = b.declare_vslot("run", 1, true);
        let mut run = b.method("C.run", 1);
        run.instance_of(cls);
        run.push_i(7).ret_val();
        let run_id = run.build(&mut b);
        b.set_vtable(cls, slot, run_id);
        let mut helper = b.method("helper", 2);
        helper.load(0).load(1).add().ret_val();
        let helper_id = helper.build(&mut b);
        let mut m = b.method("main", 1);
        m.push_i(1).push_i(2).invoke(helper_id).pop();
        m.new_obj(cls).invoke_virtual(slot, 1).pop();
        m.new_obj(cls).invoke_virtual(slot, 1).pop();
        m.ret_void();
        let entry = m.build(&mut b);
        let p = b.build(entry).unwrap();

        let d = DecodedProgram::build(&p);
        assert_eq!(d.n_ic_sites, 2, "one site per virtual call, program-wide");
        let dm = &d.methods[entry.0 as usize];
        let callee = &p.methods[helper_id.0 as usize];
        let (mut seen_static, mut sites) = (false, Vec::new());
        for (q, insn) in dm.quick.iter().zip(&p.method(entry).code) {
            // What `Match` dispatches at the same pc.
            let plain = decode_one(*insn, &p);
            match q.code {
                OpCode::InvokeStatic => {
                    seen_static = true;
                    assert_eq!(q.b, u32::from(callee.n_args));
                    assert_eq!(q.imm, i64::from(callee.n_locals));
                    // The unquickened form keeps the undecorated operands.
                    assert_eq!(plain.b, 0);
                }
                OpCode::InvokeVirtual => {
                    sites.push(q.imm);
                    assert_eq!(plain.imm, NO_IC, "unquickened form has no IC site");
                }
                _ => {}
            }
        }
        assert!(seen_static);
        assert_eq!(sites, vec![0, 1], "sites numbered in method-then-pc order");
    }
}
